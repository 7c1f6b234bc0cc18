//! `benchmark compare A.json B.json`: per (workload, end-to-end metric),
//! both sides' medians and quartiles and a verdict against the bound in
//! `BENCHMARK.json`.
//!
//! A side is one record, or several separated by commas. With one record
//! the samples are that run's own (per pass, per set-up); with several,
//! each record's reported value is one sample, as when whole runs are
//! repeated.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::harness;
use crate::json::Json;
use crate::stats::{median, relative_spread};
use crate::workload::Kind;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json` from the working directory, else from the
/// repository holding this benchmark.
fn bounds() -> Result<Vec<Bound>, String> {
    let local = PathBuf::from("BENCHMARK.json");
    let path = if local.is_file() {
        local
    } else {
        harness::bench_dir().join("../../../../../BENCHMARK.json")
    };
    let json = load(&path)?;
    Ok(json
        .get("end_to_end")
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect())
}

fn samples(side: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    let entry = |record: &Json| -> Option<Json> {
        record
            .get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)
            .cloned()
    };
    match side {
        [record] => entry(record)
            .and_then(|e| e.get("samples").cloned())
            .map(|s| s.as_array().iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
        records => records
            .iter()
            .filter_map(|r| entry(r)?.get("value")?.as_f64())
            .collect(),
    }
}

/// The verdict for one metric: `unresolved` when either side's quartile
/// spread exceeds the bound, else `better`/`worse` when B's median moved
/// past the bound, else `within`.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    if relative_spread(a) > bound || relative_spread(b) > bound {
        return "unresolved";
    }
    let change = (median(b) - median(a)) / median(a).abs();
    let gain = if higher_is_better { change } else { -change };
    if gain > bound {
        "better"
    } else if gain < -bound {
        "worse"
    } else {
        "within"
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare A.json[,A2.json...] B.json[,B2.json...]".to_owned());
    };
    let side = |list: &str| -> Result<Vec<Json>, String> {
        list.split(',').map(|p| load(Path::new(p))).collect()
    };
    let (a, b) = (side(a)?, side(b)?);
    let bounds = bounds()?;
    println!(
        "{:16} {:26} {:>14} {:>14} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "A median", "A q1..q3 %", "B median", "B q1..q3 %", "bound"
    );
    let mut worse = false;
    for kind in Kind::ALL {
        for m in &bounds {
            let (sa, sb) = (
                samples(&a, kind.name(), &m.name),
                samples(&b, kind.name(), &m.name),
            );
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let verdict = verdict(&sa, &sb, m.higher_is_better, m.bound);
            worse |= verdict == "worse";
            println!(
                "{:16} {:26} {:>14.6} {:>13.2}% {:>14.6} {:>13.2}% {:>6.0}%  {verdict}",
                kind.name(),
                m.name,
                median(&sa),
                100.0 * relative_spread(&sa),
                median(&sb),
                100.0 * relative_spread(&sb),
                100.0 * m.bound,
            );
        }
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&base, &base, false, 0.1), "within");
        assert_eq!(verdict(&base, &slower, false, 0.1), "worse");
        assert_eq!(verdict(&base, &slower, true, 0.1), "better");
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&base, &noisy, false, 0.1), "unresolved");
    }
}
