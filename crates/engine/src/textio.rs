//! A minimal text format for `(queries, database)` workloads, used by
//! the `cqd2-analyze eval` subcommand and the serving example.
//!
//! ```text
//! # comments and blank lines are ignored
//! Q: R(?x, ?y), S(?y, ?z)     # one query per `Q:` line (a batch)
//! @count                      # workload directive for later `Q:` lines
//! Q: R(?x, ?y)
//! @enumerate 10               # …stream up to 10 answer tuples
//! Q: S(?y, ?z)
//! R(1, 2)                     # every other line is a ground fact
//! S(2, 3)
//! S(2, 4)
//! ```
//!
//! Terms starting with `?` are variables (scoped per query line);
//! anything else must parse as a `u64` constant. Directive lines start
//! with `@` and set the workload for the `Q:` lines that follow:
//! `@boolean`, `@count`, or `@enumerate [limit]`. Queries before the
//! first directive carry no mode and fall back to whatever the caller
//! (e.g. the CLI's flags) chooses.
//!
//! All parse errors are typed [`ParseError`]s naming the offending
//! 1-based line.

use cqd2_cq::{ConjunctiveQuery, Database};

use crate::engine::Workload as QueryWorkload;

/// A workload-file parse error, attributed to a 1-based line when one
/// line is to blame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based offending line, `None` for file-level errors.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// An error attributed to a 1-based line.
    pub fn at(line: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line: Some(line),
            message: message.into(),
        }
    }

    /// A file-level error (no single offending line).
    pub fn whole_file(message: impl Into<String>) -> ParseError {
        ParseError {
            line: None,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed workload file: a batch of queries over one shared database,
/// each query optionally carrying the workload mode the file's
/// directives selected for it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Queries in file order.
    pub queries: Vec<ConjunctiveQuery>,
    /// Per-query workload mode from `@…` directives (aligned with
    /// `queries`; `None` = no directive seen yet, caller decides).
    pub modes: Vec<Option<QueryWorkload>>,
    /// The shared database.
    pub db: Database,
}

/// Parse one `@…` directive body (without the `@`).
fn parse_directive(body: &str) -> Result<QueryWorkload, String> {
    let mut parts = body.split_whitespace();
    let mode = match parts.next() {
        Some("boolean") => QueryWorkload::Boolean,
        Some("count") => QueryWorkload::Count,
        Some("enumerate") => {
            let limit = match parts.next() {
                None => None,
                Some(text) => Some(text.parse::<usize>().map_err(|_| {
                    format!("`@enumerate` limit `{text}` is not a non-negative integer")
                })?),
            };
            QueryWorkload::Enumerate { limit }
        }
        Some(other) => {
            return Err(format!(
                "unknown directive `@{other}` (try @boolean, @count, @enumerate [limit])"
            ));
        }
        None => return Err("empty directive (`@` with no name)".to_string()),
    };
    if let Some(junk) = parts.next() {
        return Err(format!("unexpected `{junk}` after directive"));
    }
    Ok(mode)
}

/// relation → (first-seen arity, 1-based line it was seen on).
type Arities = std::collections::HashMap<String, (usize, usize)>;

/// Parse one non-empty, comment-stripped fact line (1-based `lineno`)
/// into `(relation, tuple)`, checking the tuple against the relation's
/// first-seen arity (`Database` treats arity mismatches as schema errors
/// and panics, so they are caught here with a line number instead).
fn parse_fact_line(
    line: &str,
    lineno: usize,
    arities: &mut Arities,
) -> Result<(String, Vec<u64>), ParseError> {
    let (rel, terms) = parse_atom_text(line).map_err(|mut e| {
        e.line = Some(lineno);
        e
    })?;
    // Exact capacity: a delta batch keeps these tuples as parsed.
    let mut tuple = Vec::with_capacity(terms.len());
    for t in &terms {
        let bad = |_| ParseError::at(lineno, format!("fact term `{t}` is not a u64"));
        tuple.push(t.parse::<u64>().map_err(bad)?);
    }
    let (first_arity, first_line) = *arities.entry(rel.clone()).or_insert((tuple.len(), lineno));
    if tuple.len() != first_arity {
        return Err(ParseError::at(
            lineno,
            format!(
                "relation `{rel}` has {} terms here but {first_arity} on line {first_line}",
                tuple.len()
            ),
        ));
    }
    Ok((rel, tuple))
}

/// Fact collector shared by [`parse_workload`] and [`parse_database`]:
/// gathers each relation's facts in file order into one row-major buffer
/// and bulk-loads it at the end ([`Database::insert_flat`]) — one sort +
/// dedup per relation instead of a binary-search insertion per fact, so
/// an unsorted file costs `O(n log n)`, not quadratic element moves, and
/// no fact is held as a row of its own.
#[derive(Default)]
struct FactAccumulator {
    arities: Arities,
    /// relation → (facts seen, their values in file order).
    facts: std::collections::BTreeMap<String, (usize, Vec<u64>)>,
}

impl FactAccumulator {
    fn add_line(&mut self, line: &str, lineno: usize) -> Result<(), ParseError> {
        let (rel, tuple) = parse_fact_line(line, lineno, &mut self.arities)?;
        let (rows, data) = self.facts.entry(rel).or_default();
        *rows += 1;
        data.extend_from_slice(&tuple);
        Ok(())
    }

    fn finish(self) -> Result<Database, ParseError> {
        let mut db = Database::new();
        for (rel, (rows, data)) in self.facts {
            // `parse_fact_line` held every fact to its relation's
            // first-seen arity, so the buffer is `rows` × that.
            let arity = self.arities.get(&rel).map_or(0, |&(arity, _)| arity);
            db.insert_flat(&rel, arity, rows, data)
                .map_err(|e| ParseError::whole_file(e.to_string()))?;
        }
        Ok(db)
    }
}

/// Parse the workload format. Errors name the offending line (1-based).
pub fn parse_workload(input: &str) -> Result<Workload, ParseError> {
    let mut queries = Vec::new();
    let mut modes = Vec::new();
    let mut current_mode: Option<QueryWorkload> = None;
    let mut facts = FactAccumulator::default();
    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(body) = line.strip_prefix('@') {
            if body.split_whitespace().next() == Some("trace") {
                return Err(ParseError::at(
                    lineno + 1,
                    "`@trace` is only valid in a server query batch, not a workload file",
                ));
            }
            current_mode = Some(parse_directive(body).map_err(|e| ParseError::at(lineno + 1, e))?);
        } else if let Some(qtext) = line.strip_prefix("Q:") {
            queries.push(parse_query(qtext).map_err(|mut e| {
                e.line = Some(lineno + 1);
                e
            })?);
            modes.push(current_mode);
        } else {
            facts.add_line(line, lineno + 1)?;
        }
    }
    if queries.is_empty() {
        return Err(ParseError::whole_file("no `Q:` line found"));
    }
    Ok(Workload {
        queries,
        modes,
        db: facts.finish()?,
    })
}

/// Parse a *database file*: ground facts only, in the same syntax as the
/// fact lines of a workload file (comments and blank lines ignored).
/// `Q:` and `@…` lines are rejected — a database file describes data,
/// not a workload. This is what `cqd2-serve --db name=path` loads at
/// startup.
pub fn parse_database(input: &str) -> Result<Database, ParseError> {
    let mut facts = FactAccumulator::default();
    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("Q:") || line.starts_with('@') {
            return Err(ParseError::at(
                lineno + 1,
                "queries and directives are not allowed in a database file (facts only)",
            ));
        }
        facts.add_line(line, lineno + 1)?;
    }
    facts.finish()
}

/// Parse a *delta script*: `@insert` / `@delete` section directives,
/// each followed by fact lines in the usual syntax (comments and blank
/// lines ignored). The directives switch the polarity of subsequent
/// facts and may repeat; a fact line before the first directive is an
/// error, as is any other directive. This is the wire payload of the
/// protocol's `Delta` frame and the argument of
/// `cqd2-analyze client delta`.
///
/// ```text
/// @insert
/// R(1, 2)
/// S(2, 3)
/// @delete
/// R(9, 9)
/// ```
///
/// Semantics (enforced by [`cqd2_cq::Database::apply_delta`], not
/// here): deltas modify *existing* relations, inserts of present and
/// deletes of absent tuples are no-ops, and deletes win over inserts of
/// the same tuple within one batch.
pub fn parse_delta(input: &str) -> Result<cqd2_cq::DatabaseDelta, ParseError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Polarity {
        Insert,
        Delete,
    }
    let mut delta = cqd2_cq::DatabaseDelta::new();
    let mut polarity: Option<Polarity> = None;
    // First-seen arities hold across both polarities.
    let mut arities = Arities::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(body) = line.strip_prefix('@') {
            let mut parts = body.split_whitespace();
            polarity = match parts.next() {
                Some("insert") => Some(Polarity::Insert),
                Some("delete") => Some(Polarity::Delete),
                Some(other) => {
                    return Err(ParseError::at(
                        lineno + 1,
                        format!("unknown delta directive `@{other}` (try @insert or @delete)"),
                    ));
                }
                None => {
                    return Err(ParseError::at(
                        lineno + 1,
                        "empty directive (`@` with no name)",
                    ));
                }
            };
            if let Some(junk) = parts.next() {
                return Err(ParseError::at(
                    lineno + 1,
                    format!("unexpected `{junk}` after delta directive"),
                ));
            }
            continue;
        }
        let Some(polarity) = polarity else {
            return Err(ParseError::at(
                lineno + 1,
                "delta facts must follow an @insert or @delete directive",
            ));
        };
        let (rel, tuple) = parse_fact_line(line, lineno + 1, &mut arities)?;
        match polarity {
            Polarity::Insert => delta.insert(&rel, tuple),
            Polarity::Delete => delta.delete(&rel, tuple),
        }
    }
    if delta.is_empty() {
        return Err(ParseError::whole_file(
            "empty delta (no facts under @insert or @delete)",
        ));
    }
    Ok(delta)
}

/// Render `db` as a facts-only database file — the inverse of
/// [`parse_database`] (round-trips exactly: tuples are already stored
/// deduplicated in lexicographic order). This is how programmatically
/// generated databases are shipped to a `cqd2-serve` instance.
pub fn render_database(db: &Database) -> String {
    let mut out = String::new();
    for (name, rel) in db.relations() {
        for tuple in rel.tuples.iter() {
            let cells: Vec<String> = tuple.iter().map(u64::to_string).collect();
            out.push_str(name);
            out.push('(');
            out.push_str(&cells.join(", "));
            out.push_str(")\n");
        }
    }
    out
}

/// A parsed `cqd2-serve` query batch: the queries (with their selected
/// workload modes) plus batch-level flags carried by directives.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    /// Queries in batch order, each with the mode its preceding
    /// directives selected (`None` = no directive yet; the server
    /// defaults to `@boolean`).
    pub queries: Vec<(ConjunctiveQuery, Option<QueryWorkload>)>,
    /// `true` when the batch contains an `@trace` directive: the server
    /// attaches a per-query span breakdown to every `Result` frame of
    /// the batch.
    pub trace: bool,
}

/// Parse a *query batch*: `Q:` lines and `@…` directives only, as
/// carried by a `cqd2-serve` `Query` frame (the database is bound per
/// connection, so ground facts are rejected). Besides the workload
/// directives, a batch may carry `@trace` — a batch-level flag asking
/// the server to attach per-query trace spans to its responses.
pub fn parse_query_batch(input: &str) -> Result<QueryBatch, ParseError> {
    let mut out = Vec::new();
    let mut current_mode: Option<QueryWorkload> = None;
    let mut trace = false;
    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(body) = line.strip_prefix('@') {
            let mut parts = body.split_whitespace();
            if parts.next() == Some("trace") {
                if let Some(junk) = parts.next() {
                    return Err(ParseError::at(
                        lineno + 1,
                        format!("unexpected `{junk}` after directive"),
                    ));
                }
                trace = true;
                continue;
            }
            current_mode = Some(parse_directive(body).map_err(|e| ParseError::at(lineno + 1, e))?);
        } else if let Some(qtext) = line.strip_prefix("Q:") {
            let q = parse_query(qtext).map_err(|mut e| {
                e.line = Some(lineno + 1);
                e
            })?;
            out.push((q, current_mode));
        } else {
            return Err(ParseError::at(
                lineno + 1,
                "ground facts are not allowed in a query batch (the database is bound at \
                 connection time)",
            ));
        }
    }
    if out.is_empty() {
        return Err(ParseError::whole_file("no `Q:` line found"));
    }
    Ok(QueryBatch {
        queries: out,
        trace,
    })
}

/// [`parse_query_batch`] without the batch-level flags — kept for
/// callers that only want the `(query, mode)` pairs.
pub fn parse_queries(
    input: &str,
) -> Result<Vec<(ConjunctiveQuery, Option<QueryWorkload>)>, ParseError> {
    parse_query_batch(input).map(|batch| batch.queries)
}

/// Parse one query body: a list of atoms separated by `,` (or `∧`, the
/// separator [`cqd2_cq::ConjunctiveQuery::display`] prints, so rendered
/// queries round-trip through this parser). Errors carry no line number
/// ([`parse_workload`] attributes them to its lines).
pub fn parse_query(text: &str) -> Result<ConjunctiveQuery, ParseError> {
    let mut atoms: Vec<(String, Vec<String>)> = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let close = rest
            .find(')')
            .ok_or_else(|| ParseError::whole_file(format!("missing `)` in `{rest}`")))?;
        let (atom_text, tail) = rest.split_at(close + 1);
        let (rel, terms) = parse_atom_text(atom_text.trim())?;
        atoms.push((rel, terms));
        let tail = tail.trim_start();
        rest = match tail.strip_prefix(',').or_else(|| tail.strip_prefix('∧')) {
            Some(after) => after.trim(),
            None if tail.is_empty() => tail,
            None => {
                return Err(ParseError::whole_file(format!(
                    "expected `,` between atoms, found `{tail}`"
                )));
            }
        };
    }
    if atoms.is_empty() {
        return Err(ParseError::whole_file("query has no atoms"));
    }
    let borrowed: Vec<(&str, Vec<&str>)> = atoms
        .iter()
        .map(|(r, ts)| (r.as_str(), ts.iter().map(String::as_str).collect()))
        .collect();
    let for_parse: Vec<(&str, &[&str])> =
        borrowed.iter().map(|(r, ts)| (*r, ts.as_slice())).collect();
    Ok(ConjunctiveQuery::parse(&for_parse))
}

/// Split `R(t1, t2, …)` into the relation name and raw term texts.
fn parse_atom_text(text: &str) -> Result<(String, Vec<String>), ParseError> {
    let open = text
        .find('(')
        .ok_or_else(|| ParseError::whole_file(format!("expected `Rel(…)`, got `{text}`")))?;
    let rel = text[..open].trim();
    if rel.is_empty() {
        return Err(ParseError::whole_file(format!(
            "missing relation name in `{text}`"
        )));
    }
    let body = text[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| ParseError::whole_file(format!("missing `)` in `{text}`")))?;
    let terms: Vec<String> = if body.trim().is_empty() {
        Vec::new()
    } else {
        body.split(',').map(|t| t.trim().to_string()).collect()
    };
    if terms.iter().any(String::is_empty) {
        return Err(ParseError::whole_file(format!("empty term in `{text}`")));
    }
    Ok((rel.to_string(), terms))
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqd2_cq::eval::{bcq_naive, count_naive};

    #[test]
    fn parses_queries_and_facts() {
        let w = parse_workload(
            "# demo\n\
             Q: R(?x, ?y), S(?y, ?z)\n\
             Q: R(?a, ?a)\n\
             R(1, 2)   # planted\n\
             R(3, 3)\n\
             S(2, 3)\n",
        )
        .unwrap();
        assert_eq!(w.queries.len(), 2);
        assert_eq!(w.db.size(), 3);
        assert_eq!(w.modes, vec![None, None]);
        assert!(bcq_naive(&w.queries[0], &w.db));
        assert_eq!(count_naive(&w.queries[0], &w.db), 1);
        assert!(bcq_naive(&w.queries[1], &w.db)); // R(3,3) matches ?a,?a
    }

    #[test]
    fn constants_in_queries() {
        let w = parse_workload("Q: R(?x, 7)\nR(1, 7)\nR(2, 8)\n").unwrap();
        assert_eq!(count_naive(&w.queries[0], &w.db), 1);
    }

    #[test]
    fn directives_set_modes_for_following_queries() {
        let w = parse_workload(
            "Q: R(?x, ?y)\n\
             @count\n\
             Q: R(?x, ?x)\n\
             @enumerate 5\n\
             Q: R(?x, ?y)\n\
             @enumerate\n\
             Q: R(?y, ?x)\n\
             @boolean\n\
             Q: R(?x, ?y)\n\
             R(1, 2)\n",
        )
        .unwrap();
        assert_eq!(
            w.modes,
            vec![
                None,
                Some(QueryWorkload::Count),
                Some(QueryWorkload::Enumerate { limit: Some(5) }),
                Some(QueryWorkload::Enumerate { limit: None }),
                Some(QueryWorkload::Boolean),
            ]
        );
    }

    #[test]
    fn unknown_and_malformed_directives_are_line_errors() {
        let err = parse_workload("Q: R(?x)\n@frobnicate\nR(1)\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(
            err.message.contains("unknown directive `@frobnicate`"),
            "{err}"
        );

        let err = parse_workload("@enumerate banana\nQ: R(?x)\nR(1)\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.message.contains("banana"), "{err}");

        let err = parse_workload("@count 3\nQ: R(?x)\nR(1)\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.message.contains("unexpected `3`"), "{err}");

        let err = parse_workload("@\nQ: R(?x)\nR(1)\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.message.contains("empty directive"), "{err}");
    }

    #[test]
    fn arity_mismatch_is_an_error_not_a_panic() {
        let err = parse_workload("Q: R(?x)\nR(1)\nR(1, 2)\n").unwrap_err();
        assert_eq!(err.line, Some(3), "{err}");
        assert!(
            err.to_string().contains("line 3") && err.message.contains("line 2"),
            "should cite both the offending and the first-seen line: {err}"
        );
    }

    #[test]
    fn stray_atom_separator_is_rejected() {
        let err = parse_workload("Q: R(?x, ?y); S(?y, ?z)\nR(1, 2)\n").unwrap_err();
        assert!(err.message.contains("expected `,` between atoms"), "{err}");
        assert_eq!(err.line, Some(1));
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        // Unclosed query atom.
        let err = parse_workload("Q: R(?x\nR(1)\n").unwrap_err();
        assert_eq!(err.line, Some(1), "{err}");
        // Non-numeric fact term.
        let err = parse_workload("Q: R(?x)\nR(banana)\n").unwrap_err();
        assert_eq!(err.line, Some(2), "{err}");
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        // A fact line that is not an atom at all.
        let err = parse_workload("Q: R(?x)\njunk without parens\n").unwrap_err();
        assert_eq!(err.line, Some(2), "{err}");
        // Empty term inside an atom.
        let err = parse_workload("Q: R(?x,)\nR(1)\n").unwrap_err();
        assert_eq!(err.line, Some(1), "{err}");
        // File-level error: no query at all.
        let err = parse_workload("R(1, 2)\n").unwrap_err();
        assert_eq!(err.line, None);
        assert!(err.to_string().contains("no `Q:`"), "{err}");
    }

    #[test]
    fn enumerate_limit_zero_is_a_valid_directive() {
        // `@enumerate 0` is a legal (if odd) cap: the query runs but
        // yields no tuples — distinct from `@enumerate` (no limit).
        let w = parse_workload("@enumerate 0\nQ: R(?x)\nR(1)\nR(2)\n").unwrap();
        assert_eq!(
            w.modes,
            vec![Some(QueryWorkload::Enumerate { limit: Some(0) })]
        );
        let engine = crate::Engine::default();
        let session = engine.session(&w.db);
        let prepared = session.prepare(&w.queries[0]).unwrap();
        let resp = prepared.run(w.modes[0].unwrap());
        assert_eq!(resp.answer.as_tuples().map(<[_]>::len), Some(0));
    }

    #[test]
    fn directives_after_trailing_blank_lines_still_apply() {
        // Blank (and comment-only) lines between a directive and the
        // queries it governs are ignored, including at end of file.
        let w = parse_workload(
            "Q: R(?x)\n\
             \n\
             \n\
             @count\n\
             \n\
             # a comment island\n\
             \n\
             Q: R(?x)\n\
             R(1)\n\
             \n\
             \n",
        )
        .unwrap();
        assert_eq!(w.modes, vec![None, Some(QueryWorkload::Count)]);
        // A trailing directive with no query after it is harmless.
        let w = parse_workload("Q: R(?x)\nR(1)\n\n@count\n\n").unwrap();
        assert_eq!(w.modes, vec![None]);
    }

    #[test]
    fn crlf_line_endings_parse_identically() {
        let unix = "# demo\nQ: R(?x, ?y)\n@count\nQ: R(?x, ?x)\nR(1, 2)\nR(3, 3)\n";
        let dos = unix.replace('\n', "\r\n");
        let a = parse_workload(unix).unwrap();
        let b = parse_workload(&dos).unwrap();
        assert_eq!(a.queries.len(), b.queries.len());
        assert_eq!(a.modes, b.modes);
        assert_eq!(a.db.size(), b.db.size());
        assert_eq!(
            count_naive(&a.queries[0], &a.db),
            count_naive(&b.queries[0], &b.db)
        );
        // CRLF database and query-batch files too.
        let db = parse_database("R(1, 2)\r\nS(2, 3)\r\n").unwrap();
        assert_eq!(db.size(), 2);
        let qs = parse_queries("@count\r\nQ: R(?x, ?y)\r\n").unwrap();
        assert_eq!(qs[0].1, Some(QueryWorkload::Count));
    }

    #[test]
    fn database_files_are_facts_only() {
        let db = parse_database("# facts\nR(1, 2)\nR(2, 3)\nS(7)\n").unwrap();
        assert_eq!(db.size(), 3);
        assert!(parse_database("").unwrap().size() == 0);
        // A repeated nullary fact is one row over an empty buffer.
        let db = parse_database("U()\nR(2)\nU()\nR(1)\n").unwrap();
        assert_eq!(db.relation("U").unwrap().tuples.len(), 1);
        assert_eq!(db.relation("R").unwrap().tuples.data(), &[1, 2]);
        let err = parse_database("R(1)\nQ: R(?x)\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.message.contains("facts only"), "{err}");
        let err = parse_database("@count\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        let err = parse_database("R(1)\nR(1, 2)\n").unwrap_err();
        assert_eq!(err.line, Some(2), "arity mismatch carries its line: {err}");
    }

    #[test]
    fn render_database_round_trips() {
        let db = parse_database("R(1, 2)\nR(3, 4)\nS(9)\n").unwrap();
        let text = render_database(&db);
        assert_eq!(parse_database(&text).unwrap(), db);
        assert_eq!(render_database(&Database::new()), "");

        // Line order and repetition never change the database: a
        // shuffled copy and a copy with every fact repeated bulk-load to
        // the sorted file's database.
        let facts: Vec<String> = (0..5000u64)
            .map(|i| {
                format!(
                    "{}({}, {})",
                    ["R", "S", "T"][(i % 3) as usize],
                    i / 7,
                    i % 11
                )
            })
            .collect();
        let sorted = parse_database(&facts.join("\n")).unwrap();
        assert_eq!(sorted.size(), facts.len());
        assert_eq!(parse_database(&render_database(&sorted)).unwrap(), sorted);
        // 2731 is coprime to 5000, so this visits every line once.
        let shuffled: Vec<&str> = (0..facts.len())
            .map(|i| facts[i * 2731 % facts.len()].as_str())
            .collect();
        assert_eq!(parse_database(&shuffled.join("\n")).unwrap(), sorted);
        let doubled = [shuffled.as_slice(), shuffled.as_slice()].concat();
        assert_eq!(parse_database(&doubled.join("\n")).unwrap(), sorted);
    }

    #[test]
    fn query_batches_are_queries_only() {
        let qs = parse_queries("Q: R(?x, ?y)\n@enumerate 3\nQ: S(?a)\n").unwrap();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].1, None);
        assert_eq!(qs[1].1, Some(QueryWorkload::Enumerate { limit: Some(3) }));
        let err = parse_queries("Q: R(?x)\nR(1, 2)\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.message.contains("bound at"), "{err}");
        let err = parse_queries("# nothing\n").unwrap_err();
        assert_eq!(err.line, None);
    }

    #[test]
    fn trace_directive_is_a_batch_flag_not_a_mode() {
        let batch = parse_query_batch("@trace\n@count\nQ: R(?x, ?y)\n").unwrap();
        assert!(batch.trace);
        assert_eq!(batch.queries[0].1, Some(QueryWorkload::Count));
        // Position is irrelevant; it flags the whole batch and does not
        // disturb the workload mode in force.
        let batch = parse_query_batch("@count\nQ: R(?x)\n@trace\nQ: S(?x)\n").unwrap();
        assert!(batch.trace);
        assert_eq!(batch.queries[1].1, Some(QueryWorkload::Count));
        let batch = parse_query_batch("Q: R(?x)\n").unwrap();
        assert!(!batch.trace);
        // Junk after `@trace` is rejected like any other directive.
        let err = parse_query_batch("@trace hard\nQ: R(?x)\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.message.contains("unexpected `hard`"), "{err}");
        // Workload files reject it with a pointed message.
        let err = parse_workload("@trace\nQ: R(?x)\nR(1)\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.message.contains("server query batch"), "{err}");
    }

    #[test]
    fn display_rendering_round_trips() {
        // `ConjunctiveQuery::display` joins atoms with `∧`; the parser
        // accepts that alongside `,`, so rendered queries are resendable
        // as query text (what `cqd2-analyze client --query` relies on).
        let w = parse_workload("Q: R(?x, ?y), S(?y, 7)\nR(1, 2)\nS(2, 7)\n").unwrap();
        let rendered = w.queries[0].display();
        assert!(rendered.contains('∧'), "{rendered}");
        let again = parse_query(&rendered).unwrap();
        assert_eq!(again.display(), rendered);
        assert_eq!(
            count_naive(&again, &w.db),
            count_naive(&w.queries[0], &w.db)
        );
    }

    #[test]
    fn parse_errors_are_std_errors() {
        let err = parse_workload("Q: R(?x\n").unwrap_err();
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.to_string().contains("line 1"));
    }
}
