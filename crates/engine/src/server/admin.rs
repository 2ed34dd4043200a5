//! The admin plane (protocol v2): `Reload`, `Delta`, `CatalogInfo` and
//! `Stats`, all answered inline on the connection thread — they are
//! rare control-plane work and must not compete with queries for worker
//! slots, and reading counters must stay responsive even when every
//! worker is busy.

use cqd2_cq::sync::lock_or_poison;

use crate::error::EngineError;

use super::conn::{shape, Reply};
use super::frame::{Frame, FrameType};
use super::prepared::apply_delta_warm;
use super::stats::ServedDb;
use super::wire::{
    ErrorCode, WireCatalog, WireCatalogDb, WireDeltaApplied, WireReloaded, WireStats,
};

/// The preamble `Reload` and `Delta` share: authorize on
/// `allow_reload` (both mutate served data), decode the payload, split
/// off its first line as the database name, and resolve the name
/// against the served set. Returns the reply path scoped to that
/// database, the database, and the rest of the payload; `None` means
/// the typed error frame was already sent. `what` names the refused
/// operation in the `Unauthorized` message.
fn admin_target<'e, 'f>(
    reply: Reply<'e>,
    f: &'f Frame,
    what: &str,
) -> Option<(Reply<'e>, &'e ServedDb, &'f str)> {
    let ctx = reply.ctx;
    if !ctx.config.allow_reload {
        let message = format!("this server does not accept {what} (start it with --allow-reload)");
        reply.reject(ErrorCode::Unauthorized, message, None);
        return None;
    }
    let text = reply.text_or_reject(f)?;
    let (name, rest) = match text.split_once('\n') {
        Some((first, rest)) => (first.trim(), rest),
        None => (text.trim(), ""),
    };
    // An unknown name is not a parse failure: the typed frame touches no
    // counter, exactly like a failed `Bind`.
    let Some(db) = ctx.metrics.served(name) else {
        reply.reject(ErrorCode::UnknownDb, ctx.metrics.unknown_db(name), None);
        return None;
    };
    Some((reply.for_db(db), db, rest))
}

/// Answer a `Reload` admin frame: [`admin_target`] (first payload line
/// = database name, rest = facts), swap the catalog, purge the name's
/// stale prepared handles, answer `Reloaded`. The swap itself never
/// blocks query execution: in-flight batches hold their own pins.
pub(super) fn handle_reload(reply: Reply<'_>, f: &Frame) {
    let Some((reply, db, facts)) = admin_target(reply, f, "reloads") else {
        return;
    };
    let ctx = reply.ctx;
    // Payload form 2: `@snapshot <path>` names a server-local `.cqds`
    // file to swap in ([`crate::store`]) instead of inline facts. The
    // `@` sigil cannot collide with facts text (the facts grammar
    // rejects `@` lines), and the path is resolved by the *server*
    // process — the client ships a name, never file contents.
    let swapped = match facts.trim().strip_prefix("@snapshot") {
        Some(path) if path.trim().is_empty() => {
            let message = "@snapshot needs a server-local file path";
            return reply.reject(ErrorCode::BadFrame, message, None);
        }
        Some(path) => crate::store::swap_snapshot(ctx.catalog, &db.name, path.trim()),
        None => ctx.catalog.swap_str(&db.name, facts),
    };
    let snapshot = match swapped {
        Ok(s) => s,
        Err(e) => return reply.reject_engine(&e),
    };
    // Eagerly release the old epoch's pinned bag trees; lookups would
    // drop them lazily anyway, but cold entries could linger.
    lock_or_poison(&db.prepared).purge_stale(snapshot.epoch());
    ctx.metrics.totals.reloads.inc();
    let (facts, relations, epoch) = shape(&snapshot);
    let _ = reply.ok(FrameType::Reloaded, |request, server_micros| WireReloaded {
        request,
        db: db.name.clone(),
        epoch,
        facts,
        relations,
        server_micros,
    });
}

/// Answer a `Delta` admin frame: [`admin_target`] (deltas ride the
/// same `--allow-reload` gate; first payload line = database name, rest
/// = an `@insert` / `@delete` delta script), then merge incrementally —
/// untouched relations are `Arc`-shared into the new epoch — and
/// migrate the name's warm prepared handles onto it *before* it is
/// published, outside the lock readers take
/// ([`super::prepared::apply_delta_warm`]); answer `DeltaApplied` once
/// the epoch is public. Every rejection (unknown name, parse failure,
/// delta kernel refusal) leaves the previously published epoch serving
/// unmoved: the whole batch validates before any merge.
pub(super) fn handle_delta(reply: Reply<'_>, f: &Frame) {
    let Some((reply, db, script)) = admin_target(reply, f, "deltas") else {
        return;
    };
    let ctx = reply.ctx;
    let applied = crate::textio::parse_delta(script)
        .map_err(EngineError::from)
        .and_then(|delta| apply_delta_warm(ctx.catalog, &db.prepared, &db.name, &delta, || {}));
    let (outcome, refresh) = match applied {
        Ok(applied) => applied,
        Err(e) => return reply.reject_engine(&e),
    };
    db.metrics.delta_batches.inc();
    db.metrics.facts_inserted.add(outcome.inserted as u64);
    db.metrics.facts_deleted.add(outcome.deleted as u64);
    db.metrics.bags_remat.add(refresh.bags_remat);
    let _ = reply.ok(FrameType::DeltaApplied, |request, server_micros| {
        WireDeltaApplied {
            request,
            db: db.name.clone(),
            epoch: outcome.snapshot.epoch(),
            inserted: outcome.inserted as u64,
            deleted: outcome.deleted as u64,
            relations_touched: outcome.touched.clone(),
            facts: outcome.snapshot.db().size() as u64,
            prepared_warm: refresh.warm,
            // Every handle migrates warm; the field stays on the wire.
            prepared_reprepared: 0,
            bags_remat: refresh.bags_remat,
            server_micros,
        }
    });
}

/// Answer a `CatalogInfo` admin frame with the served names, their
/// epochs, and whether reloads are enabled.
pub(super) fn handle_catalog_info(reply: Reply<'_>, _f: &Frame) {
    let ctx = reply.ctx;
    let served = ctx.metrics.dbs.iter();
    let databases = served
        .filter_map(|db| ctx.catalog.get(&db.name))
        .map(|snapshot| {
            let (facts, relations, epoch) = shape(&snapshot);
            WireCatalogDb {
                name: snapshot.name().to_string(),
                epoch,
                facts,
                relations,
            }
        })
        .collect();
    let _ = reply.ok(FrameType::Catalog, |request, server_micros| WireCatalog {
        request,
        reload_enabled: ctx.config.allow_reload,
        databases,
        server_micros,
    });
}

/// Answer a `Stats` admin frame with the full server-wide metrics
/// snapshot ([`super::stats::ServerMetrics::report`]).
pub(super) fn handle_stats(reply: Reply<'_>, _f: &Frame) {
    let ctx = reply.ctx;
    let report = ctx.metrics.report(ctx.catalog, ctx.queue);
    let _ = reply.ok(FrameType::StatsReport, |request, server_micros| WireStats {
        request,
        server_micros,
        ..report
    });
}
