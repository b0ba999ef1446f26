//! The grid runner and report writer every chaos harness shares.
//!
//! A chaos harness drives one subsystem through a grid of scenarios ×
//! severities × seeds and checks a contract on every run. What the
//! harnesses do alike lives here: the grid (severities from
//! `EMOLEAK_CHAOS_SEVERITIES`, seed count from `EMOLEAK_CHAOS_SEEDS`), a
//! per-cell panic firewall with its own scratch directory, run records
//! made of named JSON values plus their violations, and one report layout
//! published under [`results_dir`]. The two fleet harnesses also share
//! their fleet tuning ([`fleet_config`]) and their final drain
//! ([`drain_fleet`]). Each harness binary keeps only its scenario table,
//! its simulation and its contract checks.

use crate::{results_dir, write_result};
use emoleak_admission::QueuedChunk;
use emoleak_core::EmoleakError;
use emoleak_fleet::{FleetConfig, FleetCoordinator, FleetStats, FleetView};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Named values in render order.
pub type Fields = Vec<(&'static str, Json)>;

/// One value of a chaos report. Every value renders on one line.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Fixed point with this many decimals; a non-finite value is `null`.
    Num(f64, usize),
    Str(String),
    /// A digest, rendered as a quoted 16-digit hex string.
    Hex(u64),
    Arr(Vec<Json>),
    Obj(Fields),
}

impl Json {
    /// The integer inside an `Int` or a `Hex`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(n) | Json::Hex(n) => Some(n),
            _ => None,
        }
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        })*
    };
}

json_from! {
    bool => |b| Json::Bool(b),
    u32 => |n| Json::Int(n.into()),
    u64 => |n| Json::Int(n),
    usize => |n| Json::Int(n as u64),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |parts: Vec<String>| parts.join(", ");
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(v, decimals) if v.is_finite() => write!(f, "{v:.decimals$}"),
            Json::Num(..) => f.write_str("null"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' | '\\' => write!(f, "\\{c}")?,
                        c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Hex(h) => write!(f, "\"{h:016x}\""),
            Json::Arr(items) => {
                write!(f, "[{}]", join(items.iter().map(Json::to_string).collect()))
            }
            Json::Obj(fields) => {
                let pairs = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
                write!(f, "{{{}}}", join(pairs))
            }
        }
    }
}

/// One run of a chaos grid: the fields naming its cell, the fields it
/// measured, and every contract violation. A run that could not finish
/// keeps its naming fields and its violations and measures nothing.
#[derive(Clone, Debug)]
pub struct Record {
    pub cell: Fields,
    pub fields: Fields,
    pub violations: Vec<String>,
}

impl Record {
    /// Whether the run kept its contract.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The measured field `key`, if the run got as far as measuring it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A run line: the cell's fields, `ok`, the measured fields, then the
/// violations.
impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = self.cell.clone();
        line.push(("ok", self.ok().into()));
        line.extend(self.fields.iter().cloned());
        let violations = self.violations.iter().map(|v| v.as_str().into()).collect();
        line.push(("violations", Json::Arr(violations)));
        Json::Obj(line).fmt(f)
    }
}

/// One cell of a chaos grid.
#[derive(Clone, Copy, Debug)]
pub struct Cell<S> {
    pub name: &'static str,
    pub scenario: S,
    pub severity: f64,
    pub seed: u64,
}

impl<S> Cell<S> {
    /// The fields naming this cell in its run line: the scenario's name
    /// under `key`, then `severity` and `seed`.
    pub fn fields(&self, key: &'static str) -> Fields {
        vec![
            (key, self.name.into()),
            ("severity", Json::Num(self.severity, 3)),
            ("seed", self.seed.into()),
        ]
    }
}

/// The scenario × severity × seed grid, scenario-major, then severity,
/// then seed. `EMOLEAK_CHAOS_SEVERITIES` (a comma list) and
/// `EMOLEAK_CHAOS_SEEDS` (a count) override the harness's defaults. A
/// cell's seed mixes the harness's `salt`, the seed's position and the
/// severity, so no two cells of a grid share a random stream.
///
/// # Errors
///
/// [`EmoleakError::Config`] when either variable is set but malformed.
pub fn grid<S: Copy>(
    scenarios: &[(&'static str, S)],
    salt: u64,
    severities: &[f64],
    seeds: u64,
) -> Result<Vec<Cell<S>>, EmoleakError> {
    let severities = emoleak_exec::parse_list_checked(
        "EMOLEAK_CHAOS_SEVERITIES",
        "comma-separated non-negative numbers",
        |&s: &f64| s.is_finite() && s >= 0.0,
    )?
    .unwrap_or_else(|| severities.to_vec());
    let seeds =
        emoleak_exec::parse_checked("EMOLEAK_CHAOS_SEEDS", "a positive count", |&n: &u64| n > 0)?
            .unwrap_or(seeds);
    let mut cells = Vec::new();
    for &(name, scenario) in scenarios {
        for &severity in &severities {
            for k in 0..seeds {
                let seed = salt ^ k.wrapping_mul(0x9E37_79B9) ^ (severity.to_bits() >> 17);
                cells.push(Cell { name, scenario, severity, seed });
            }
        }
    }
    Ok(cells)
}

/// Runs one grid cell behind a panic firewall. `simulate` gets a fresh
/// scratch directory of its own, removed afterwards, and the run's
/// violation list, and returns what it measured, or why the run could
/// not finish. That reason, like an escaped panic, becomes the run's last
/// violation, and the record still names its cell.
pub fn run_cell(
    harness: &str,
    index: usize,
    cell: Fields,
    simulate: impl FnOnce(&Path, &mut Vec<String>) -> Result<Fields, String>,
) -> Record {
    let dir =
        std::env::temp_dir().join(format!("emoleak-{harness}-{}-{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut violations = Vec::new();
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("scratch dir {} unusable: {e}", dir.display()))
        .and_then(|()| {
            catch_unwind(AssertUnwindSafe(|| simulate(&dir, &mut violations))).unwrap_or_else(
                |panic| {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    Err(format!("escaped panic in {harness}: {message}"))
                },
            )
        });
    let _ = std::fs::remove_dir_all(&dir);
    let fields = outcome.unwrap_or_else(|why| {
        violations.push(why);
        Vec::new()
    });
    Record { cell, fields, violations }
}

/// The integer field `key` of every record that measured it.
pub fn column<'a>(records: &'a [Record], key: &'a str) -> impl Iterator<Item = u64> + 'a {
    records.iter().filter_map(move |r| r.get(key)?.as_u64())
}

/// Renders a chaos report: the `head` fields, one line per run, the
/// `summary` block when there is one, then the run totals.
fn report(head: &[(&str, Json)], records: &[Record], summary: &[(&str, Json)]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in head {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    let runs: Vec<String> = records.iter().map(|r| format!("    {r}")).collect();
    out.push_str(&format!("  \"runs\": [\n{}\n  ],\n", runs.join(",\n")));
    if !summary.is_empty() {
        let lines: Vec<String> =
            summary.iter().map(|(key, value)| format!("    \"{key}\": {value}")).collect();
        out.push_str(&format!("  \"summary\": {{\n{}\n  }},\n", lines.join(",\n")));
    }
    let failed = records.iter().filter(|r| !r.ok()).count();
    out.push_str(&format!(
        "  \"total_runs\": {},\n  \"failed_runs\": {failed}\n}}\n",
        records.len()
    ));
    out
}

/// Writes `contents` atomically to `name` under [`results_dir`] and
/// returns the path. When the write fails the contents go to stdout
/// instead, so a finished run's report is never lost.
pub fn publish(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    match write_result(&path, contents.as_bytes()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {} ({e}); it follows:\n{contents}", path.display()),
    }
    path
}

/// Ends a harness: prints the run table (each record's cell fields, `ok`
/// and the measured `columns`, with its violations under it), publishes
/// the report as `<harness>.json`, and panics when any run broke its
/// contract, so the process exits non-zero.
pub fn finish(
    harness: &str,
    head: &[(&str, Json)],
    records: &[Record],
    summary: &[(&str, Json)],
    columns: &[&str],
) {
    let cell_keys = records.first().map_or(&[][..], |r| &r.cell[..]).iter().map(|(k, _)| *k);
    let mut rows: Vec<Vec<String>> =
        vec![cell_keys.chain(["ok"]).chain(columns.iter().copied()).map(String::from).collect()];
    rows.extend(records.iter().map(|r| {
        let cell = r.cell.iter().map(|(_, v)| plain(v));
        let ok = if r.ok() { "ok" } else { "FAIL" }.to_string();
        let measured = columns.iter().map(|c| r.get(c).map_or_else(|| "-".to_string(), plain));
        cell.chain([ok]).chain(measured).collect()
    }));
    let width = |i: usize| rows.iter().map(|row| row[i].len()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..rows[0].len()).map(width).collect();
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> =
            row.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}")).collect();
        println!("{}", cells.join("  "));
        for v in i.checked_sub(1).map_or(&[][..], |k| &records[k].violations[..]) {
            println!("    violation: {v}");
        }
    }
    let failed = records.iter().filter(|r| !r.ok()).count();
    println!("\n{} runs, {failed} failed", records.len());
    publish(&format!("{harness}.json"), &report(head, records, summary));
    assert!(failed == 0, "{failed} {harness} run(s) violated the contract");
}

/// A value as a table cell: strings bare, composites joined with `/`.
fn plain(value: &Json) -> String {
    let join = |parts: Vec<String>| parts.join("/");
    match value {
        Json::Str(s) => s.clone(),
        Json::Hex(h) => format!("{h:016x}"),
        Json::Arr(items) => join(items.iter().map(plain).collect()),
        Json::Obj(fields) => join(fields.iter().map(|(_, v)| plain(v)).collect()),
        scalar => scalar.to_string(),
    }
}

/// The fleet tuning every fleet-chaos run starts from: the shard count and
/// message plane of `env` (the fleet's environment knobs, `EMOLEAK_SHARDS`
/// and `EMOLEAK_NET`), generous rate limits (floods are shaped by the byte
/// budget and the breaker), a short ledger cadence so crash reconciliation
/// stays tight, and a short scrub cadence so every shard's replica is
/// verified a few times within a run (round-robin over the fleet).
pub fn fleet_config(env: &FleetConfig) -> FleetConfig {
    let mut cfg = FleetConfig {
        shards: env.shards,
        net: env.net,
        ledger_every: 10,
        scrub_every: 10,
        ..FleetConfig::default()
    };
    cfg.admission.mem_budget = 1 << 16;
    cfg.admission.tenant_rps = 1_000_000;
    cfg.admission.tenant_burst = 1_000_000;
    cfg
}

/// Ends a fleet-chaos run with a full drain: advances from tick `now` at
/// unlimited capacity until nothing is queued or in flight (at most
/// 10 000 ticks), handing each served chunk and its tick to `serve`.
/// Then the books must close — the identity holds, the fleet settled, and
/// a shard is still live — or the run gets a violation. Returns the final
/// counters and view.
pub fn drain_fleet(
    coord: &mut FleetCoordinator,
    mut now: u64,
    violations: &mut Vec<String>,
    mut serve: impl FnMut(QueuedChunk, u64),
) -> (FleetStats, FleetView) {
    let mut drained = 0;
    while !coord.stats().settled() && drained < 10_000 {
        for chunk in coord.advance(now, usize::MAX, &[]) {
            serve(chunk, now);
        }
        now += 1;
        drained += 1;
    }
    let (stats, view) = (coord.stats(), coord.view());
    if !stats.conserves() {
        violations.push(format!("final identity broken: {stats:?}"));
    }
    if !stats.settled() {
        violations.push(format!(
            "drained fleet still holds {} queued and {} in-flight chunk(s)",
            stats.queued, stats.in_flight
        ));
    }
    if view.live == 0 {
        violations.push("the fleet went dark: zero live shards".to_string());
    }
    (stats, view)
}

/// FNV-1a over a served stream: each tenant (sorted) by name, then its
/// `(seq, cost)` pairs in order. It depends only on what each tenant had
/// served, not on which shard served it or how the shards interleaved.
pub fn served_digest(served: &BTreeMap<String, Vec<(u64, u64)>>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for (tenant, chunks) in served {
        tenant.bytes().for_each(&mut eat);
        eat(0xFF);
        for (seq, cost) in chunks {
            seq.to_le_bytes().into_iter().chain(cost.to_le_bytes()).for_each(&mut eat);
        }
    }
    hash
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(q * n)`, clamped into the sample, for `q` in `0..=1`. An empty
/// sample gives `T::default()`.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run line of `scenario` at `severity`/`seed` with `ints` measured,
    /// then `rest`.
    fn line(cell: (&'static str, f64, u64), ints: &[(&'static str, u64)], rest: Fields) -> String {
        let (name, severity, seed) = cell;
        let cell = Cell { name, scenario: (), severity, seed };
        let fields = ints.iter().map(|&(k, v)| (k, v.into())).chain(rest).collect();
        Record { cell: cell.fields("scenario"), fields, violations: Vec::new() }.to_string()
    }

    #[test]
    fn run_lines_render_as_committed() {
        let disk = line(
            ("mixed", 2.0, 35184372142428),
            &[("offered", 602), ("served", 499), ("rejected", 0), ("shed", 101), ("migrated", 2)],
            vec![
                ("crash_loss", 101u64.into()),
                ("recovered", 2u64.into()),
                ("transitions", 12u64.into()),
                ("worst_durability", "memory_only".into()),
                ("durability_level_ticks", Json::Arr([108, 33, 909, 0].map(Json::Int).to_vec())),
                ("unjournaled", 1215u64.into()),
                ("served_digest", Json::Hex(0x8011_0cdb_592b_bcb3)),
            ],
        );
        assert_eq!(
            disk,
            r#"{"scenario": "mixed", "severity": 2.000, "seed": 35184372142428, "ok": true, "offered": 602, "served": 499, "rejected": 0, "shed": 101, "migrated": 2, "crash_loss": 101, "recovered": 2, "transitions": 12, "worst_durability": "memory_only", "durability_level_ticks": [108, 33, 909, 0], "unjournaled": 1215, "served_digest": "80110cdb592bbcb3", "violations": []}"#
        );
        let fleet = line(
            ("shard_kill", 2.0, 35184372150766),
            &[
                ("offered", 844), ("served", 824), ("rejected", 0), ("shed", 0), ("migrated", 20),
                ("crash_loss", 0), ("recovered", 20), ("recovery_ticks", 3), ("scrub_found", 0),
                ("scrub_repaired", 0), ("failovers_graceful", 0), ("failovers_crash", 1),
                ("live_shards", 3), ("restart_burn", 0),
            ],
            vec![("served_digest", Json::Hex(0xf1b4_8a2d_ba7e_e5e2))],
        );
        assert_eq!(
            fleet,
            r#"{"scenario": "shard_kill", "severity": 2.000, "seed": 35184372150766, "ok": true, "offered": 844, "served": 824, "rejected": 0, "shed": 0, "migrated": 20, "crash_loss": 0, "recovered": 20, "recovery_ticks": 3, "scrub_found": 0, "scrub_repaired": 0, "failovers_graceful": 0, "failovers_crash": 1, "live_shards": 3, "restart_burn": 0, "served_digest": "f1b48a2dba7ee5e2", "violations": []}"#
        );
        let sojourn = [("p50", 0), ("p99", 600), ("p999", 600), ("max", 600)];
        let overload = line(
            ("slow_consumer", 4.0, 35218731829821),
            &[
                ("offered", 5400), ("served", 3573), ("rejected", 1668), ("shed", 159),
                ("mem_peak", 144019), ("peak_sessions", 6), ("fleet_transitions", 6),
            ],
            vec![
                ("worst_state", "brown-out".into()),
                ("sojourn_ticks", Json::Obj(sojourn.map(|(k, v)| (k, Json::Int(v))).to_vec())),
            ],
        );
        assert_eq!(
            overload,
            r#"{"scenario": "slow_consumer", "severity": 4.000, "seed": 35218731829821, "ok": true, "offered": 5400, "served": 3573, "rejected": 1668, "shed": 159, "mem_peak": 144019, "peak_sessions": 6, "fleet_transitions": 6, "worst_state": "brown-out", "sojourn_ticks": {"p50": 0, "p99": 600, "p999": 600, "max": 600}, "violations": []}"#
        );
    }

    #[test]
    fn reports_keep_every_violation_as_valid_json() {
        let cell = vec![("scenario", "a".into())];
        let ok = Record { cell, fields: vec![], violations: vec![] };
        let failed = Record {
            violations: vec![r#"checkpoint "C:\tmp" failed"#.into(), "recovery\tfailed".into()],
            ..ok.clone()
        };
        assert_eq!(
            report(&[("shards", 4u32.into())], &[ok.clone(), failed], &[("lost", 3u64.into())]),
            "{\n  \"shards\": 4,\n  \"runs\": [\n    {\"scenario\": \"a\", \"ok\": true, \
             \"violations\": []},\n    {\"scenario\": \"a\", \"ok\": false, \"violations\": \
             [\"checkpoint \\\"C:\\\\tmp\\\" failed\", \"recovery\\u0009failed\"]}\n  ],\n  \
             \"summary\": {\n    \"lost\": 3\n  },\n  \"total_runs\": 2,\n  \
             \"failed_runs\": 1\n}\n"
        );
        assert_eq!(
            report(&[], &[ok], &[]),
            "{\n  \"runs\": [\n    {\"scenario\": \"a\", \"ok\": true, \"violations\": []}\n  \
             ],\n  \"total_runs\": 1,\n  \"failed_runs\": 0\n}\n"
        );
    }

    #[test]
    fn grid_reproduces_each_harness_seeds() {
        let seeds = |salt, n| -> Vec<u64> {
            grid(&[("s", ())], salt, &[0.0], n).unwrap().iter().map(|c| c.seed).collect()
        };
        assert_eq!(seeds(0xC4A0, 1), [50336], "stream_chaos");
        assert_eq!(seeds(0x0A3D, 1), [2621], "overload_chaos");
        assert_eq!(seeds(0xF1EE, 1), [61934], "fleet_chaos");
        assert_eq!(seeds(0xD15C, 2), [53596, 2654447845], "disk_chaos");
        // Scenario-major, then severity, then seed, as the reports list them.
        let cells = grid(&[("a", 0), ("b", 1)], 0x0A3D, &[0.0, 1.0], 2).unwrap();
        let order: Vec<_> =
            cells.iter().map(|c| (c.name, c.scenario, c.severity, c.seed)).collect();
        assert_eq!(
            order[..5],
            [
                ("a", 0, 0.0, 2621),
                ("a", 0, 0.0, 2654434180),
                ("a", 0, 1.0, 35150012353085),
                ("a", 0, 1.0, 35152666784644),
                ("b", 1, 0.0, 2621),
            ]
        );
    }

    #[test]
    fn percentile_is_overloads_nearest_rank() {
        // The sojourn summary the overload harness used to compute itself.
        let sojourn_rank = |sorted: &[u64], p: f64| {
            let idx = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        for n in 1..=1200u64 {
            let sample: Vec<u64> = (1..=n).map(|v| v * 3).collect();
            for p in [50.0, 99.0, 99.9] {
                assert_eq!(percentile(&sample, p / 100.0), sojourn_rank(&sample, p), "n={n} p={p}");
            }
        }
        // 99.9 / 100.0 is 0.9990000000000001, not 0.999: the rank's ceil
        // differs, which is why the overload harness keeps its quotient.
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 99.9 / 100.0), 1000);
        assert_eq!(percentile(&thousand, 0.999), 999);
        assert_eq!(percentile::<f64>(&[], 0.5), 0.0);
    }

    #[test]
    fn an_escaped_panic_fails_its_cell_and_the_next_cell_still_runs() {
        let mut scratch = Vec::new();
        let records: Vec<Record> = (0..2)
            .map(|i| {
                run_cell("chaos-unit", i, vec![("seed", i.into())], |dir, violations| {
                    assert!(dir.is_dir(), "each cell gets its own scratch dir");
                    scratch.push(dir.to_path_buf());
                    if i == 0 {
                        violations.push("checkpoint failed".to_string());
                        panic!("boom");
                    }
                    Ok(vec![("served", 5u64.into())])
                })
            })
            .collect();
        let failed = &records[0];
        assert_eq!(failed.violations, ["checkpoint failed", "escaped panic in chaos-unit: boom"]);
        assert_eq!((&failed.cell[..], failed.fields.len()), (&[("seed", 0usize.into())][..], 0));
        assert!(records[1].ok());
        assert_eq!(column(&records, "served").collect::<Vec<_>>(), [5]);
        assert!(scratch[0] != scratch[1] && scratch.iter().all(|d| !d.exists()));
    }
}
