//! Output checks: committed goldens, byte equality across passes, and the
//! invariants that must hold at any seed. Every check is one attempted
//! operation; a failed check counts toward `error_frac`.

use std::path::{Path, PathBuf};

use thermal_time_shifting::units::json::{parse, Json};

/// The registry experiments with a committed `results/<name>.summary.json`.
pub const GOLDEN_NAMES: [&str; 7] = [
    "fig7",
    "fig11",
    "fig12",
    "dcsim",
    "design",
    "scenarios",
    "schedule",
];

/// The committed summaries, read once per set-up.
#[derive(Debug, Clone)]
pub struct Goldens {
    dir: PathBuf,
    files: Vec<(&'static str, Vec<u8>)>,
}

impl Goldens {
    /// Reads every golden in [`GOLDEN_NAMES`] from `dir`; a missing or
    /// unreadable file is an error, since no run can be checked without it.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let files = GOLDEN_NAMES
            .iter()
            .map(|&name| {
                let path = dir.join(format!("{name}.summary.json"));
                std::fs::read(&path)
                    .map(|bytes| (name, bytes))
                    .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            dir: dir.to_path_buf(),
            files,
        })
    }

    /// The golden bytes for `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in [`GOLDEN_NAMES`] (a bug in a workload).
    pub fn get(&self, name: &str) -> &[u8] {
        self.files
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, bytes)| bytes.as_slice())
            .unwrap_or_else(|| panic!("no golden is loaded for {name}"))
    }

    /// Checks `bytes` against the golden for `name`.
    pub fn check(&self, name: &str, bytes: &[u8]) -> Result<(), String> {
        if bytes == self.get(name) {
            Ok(())
        } else {
            Err(format!(
                "{name}: output differs from {}/{name}.summary.json",
                self.dir.display()
            ))
        }
    }
}

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted (each one checked).
    pub attempted: u64,
    /// Operations that failed: transport or status errors, byte
    /// mismatches and invariant violations.
    pub failed: u64,
    messages: Vec<String>,
}

/// How many failure messages a tally keeps for the report.
const KEPT_MESSAGES: usize = 8;

impl Tally {
    /// Records one operation and the outcome of its checks.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(msg);
            }
        }
    }

    /// Adds another tally's operations to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for msg in other.messages {
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(msg);
            }
        }
    }

    /// The first failure messages, in order.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Parses a rendered document.
pub fn parse_doc(what: &str, bytes: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| format!("{what}: body is not UTF-8"))?;
    parse(text).map_err(|e| format!("{what}: body is not JSON: {e:?}"))
}

/// Every number in `doc` is finite. The renderer writes a non-finite
/// number as `null`, so a `null` anywhere fails the check too.
pub fn all_finite(what: &str, doc: &Json) -> Result<(), String> {
    match doc {
        Json::Null => Err(format!("{what}: a value is null (non-finite)")),
        Json::Num(v) if !v.is_finite() => Err(format!("{what}: a value is not finite")),
        Json::Arr(items) => items.iter().try_for_each(|v| all_finite(what, v)),
        Json::Obj(members) => members.iter().try_for_each(|(_, v)| all_finite(what, v)),
        _ => Ok(()),
    }
}

/// A registry summary (`emit_json`) is well formed: it names `name`, has
/// at least one headline scalar, and every value is finite.
pub fn summary_is_well_formed(name: &str, doc: &Json) -> Result<(), String> {
    if doc.get("name").and_then(Json::as_str) != Some(name) {
        return Err(format!("{name}: summary does not name the experiment"));
    }
    match doc.get("key_values").and_then(Json::as_obj) {
        Some(kv) if !kv.is_empty() => {}
        _ => return Err(format!("{name}: summary has no key_values")),
    }
    all_finite(name, doc)
}

/// A headline scalar of a summary.
pub fn key_value(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get("key_values")
        .and_then(|kv| kv.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("summary has no key_values.{key}"))
}

/// The `schedule` invariants at any seed: the optimizer beats the passive
/// bill and misses no deadline.
pub fn schedule_invariants(doc: &Json) -> Result<(), String> {
    let optimized = key_value(doc, "cost_optimized_usd")?;
    let passive = key_value(doc, "cost_passive_usd")?;
    if optimized >= passive {
        return Err(format!(
            "schedule: optimized bill {optimized} is not below the passive bill {passive}"
        ));
    }
    let misses = key_value(doc, "deadline_misses")?;
    if misses != 0.0 {
        return Err(format!("schedule: {misses} deadline misses"));
    }
    Ok(())
}

/// Largest fleet ledger residue accepted per server step, in core-seconds:
/// float noise, orders of magnitude below one job's work.
const FLEET_RESIDUE_PER_STEP: f64 = 1e-9;

/// The `fleet` invariants at any seed: the summary reports the servers
/// asked for, one epoch per 60 s of the horizon, and a work ledger that
/// balances to float noise. (Its `server_steps` is servers × epochs by
/// definition, so it is not checked on its own.)
pub fn fleet_invariants(doc: &Json, servers: f64, epochs: f64) -> Result<(), String> {
    let reported = key_value(doc, "servers")?;
    if reported != servers {
        return Err(format!("fleet: {reported} servers, {servers} asked for"));
    }
    let stepped = key_value(doc, "epochs")?;
    if stepped != epochs {
        return Err(format!(
            "fleet: {stepped} epochs, the horizon needs {epochs}"
        ));
    }
    let residue = key_value(doc, "conservation_error_core_s")?;
    if residue.abs() > FLEET_RESIDUE_PER_STEP * servers * epochs {
        return Err(format!(
            "fleet: ledger residue {residue} core-s is above float noise"
        ));
    }
    Ok(())
}

/// The headline scalars every `dcsim` job result must carry, with a
/// positive completion count.
pub fn dcsim_invariants(doc: &Json) -> Result<(), String> {
    let completed = key_value(doc, "completed")?;
    if completed <= 0.0 {
        return Err("dcsim: no job completed".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_and_non_finite_values_fail() {
        let doc = parse(r#"{"a": [1, 2, {"b": null}]}"#).unwrap();
        assert!(all_finite("x", &doc).is_err());
        assert!(all_finite("x", &Json::Num(f64::INFINITY)).is_err());
        assert!(all_finite("x", &parse(r#"{"a": [1, 2.5]}"#).unwrap()).is_ok());
    }

    #[test]
    fn tally_counts_failures_and_keeps_messages() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("bad".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.messages(), ["bad"]);
        assert_eq!(t.error_frac(), 0.5);
    }

    #[test]
    fn fleet_invariants_catch_a_short_run_and_a_leaky_ledger() {
        let doc = |servers, epochs, residue| {
            parse(&format!(
                r#"{{"key_values": {{"servers": {servers}, "epochs": {epochs},
                    "conservation_error_core_s": {residue}}}}}"#
            ))
            .unwrap()
        };
        assert!(fleet_invariants(&doc(10, 3, 1e-12), 10.0, 3.0).is_ok());
        assert!(fleet_invariants(&doc(10, 2, 0.0), 10.0, 3.0).is_err());
        assert!(fleet_invariants(&doc(9, 3, 0.0), 10.0, 3.0).is_err());
        assert!(fleet_invariants(&doc(10, 3, 1e-3), 10.0, 3.0).is_err());
    }
}
