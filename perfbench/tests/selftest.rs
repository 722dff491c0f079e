//! The benchmark's self-test, in its small-size mode: every workload and
//! metric that `BENCHMARK.json` names is printed with its unit, every span
//! lies inside its parent, and the set-up spans of one sample add up to no
//! more than that sample's `setup_s`.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::json::{parse, Json};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workload::NAMES;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Json, list: &str, key: &str) -> Vec<String> {
    v.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|e| e.get(key).and_then(Json::as_str).expect("string field").to_string())
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let b = benchmark_json();
    assert_eq!(names(&b, "workloads", "name"), NAMES);
    for (list, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let got: Vec<(String, String)> =
            names(&b, list, "name").into_iter().zip(names(&b, list, "unit")).collect();
        let want: Vec<(String, String)> =
            declared.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(got, want, "{list}");
    }
}

/// Run the binary on one small workload; returns the parsed last line and
/// the run's output directory.
fn run(workload: &str, trace: bool, out: &Path) -> (Json, PathBuf) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2", "--small"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace}: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("output has a last line");
    let dir = out.join(format!("{workload}-seed7-trace{}", trace as u8));
    (parse(last).expect("last line is JSON"), dir)
}

fn check_result_line(line: &Json, declared: &[(&str, &str)], what: &str) {
    let keys: Vec<&String> = line.as_obj().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{what}");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0), "{what}");
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0, "{what}");
    let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics object");
    assert_eq!(metrics.len(), declared.len(), "{what}: {:?}", metrics.keys());
    for (name, unit) in declared {
        let m = metrics.get(*name).unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{what}: {name}");
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{what}: {name} has no value"));
        assert!(v.is_finite() && v >= 0.0, "{what}: {name} = {v}");
    }
}

fn check_spans(dir: &Path, what: &str) {
    let text = std::fs::read_to_string(dir.join("spans.json")).expect("spans.json written");
    let doc = parse(&text).expect("spans.json parses");
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans list");
    assert!(!spans.is_empty(), "{what}: no spans");
    let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64);
    let mut children_us = vec![0.0; spans.len()];
    for s in spans {
        let (start, end) = (num(s, "start_us").unwrap(), num(s, "end_us").unwrap());
        assert!(start <= end, "{what}: span ends before it starts: {s:?}");
        if let Some(p) = num(s, "parent") {
            let parent = &spans[p as usize];
            assert!(
                num(parent, "start_us").unwrap() <= start && end <= num(parent, "end_us").unwrap(),
                "{what}: span outside its parent: {s:?} in {parent:?}"
            );
            assert_eq!(s.get("job"), parent.get("job"), "{what}: child of another job");
            children_us[p as usize] += end - start;
        }
    }
    let mut samples = 0;
    for (i, s) in spans.iter().enumerate() {
        let name = s.get("name").and_then(Json::as_str).unwrap();
        if name == "setup.cold" || name == "setup.warm" {
            let setup_us = num(s, "value_s").expect("set-up sample value") * 1e6;
            assert!(children_us[i] > 0.0, "{what}: set-up sample without spans");
            assert!(
                children_us[i] <= setup_us + 1e-3,
                "{what}: spans {} us > sample {setup_us} us",
                children_us[i]
            );
            samples += 1;
        }
    }
    assert!(samples > 0, "{what}: no set-up samples traced");
    for probe in ["op", "decode.s", "compile.maxjit_s", "instantiate.s", "traced", "jit", "virtual"]
    {
        assert!(
            spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some(probe)),
            "{what}: no {probe} span"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_consistent_spans() {
    let out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{}", std::process::id()));
    for workload in NAMES {
        let (line, _) = run(workload, false, &out);
        check_result_line(&line, END_TO_END, &format!("{workload} untraced"));

        let what = format!("{workload} traced");
        let (line, dir) = run(workload, true, &out);
        check_result_line(&line, PER_LAYER, &what);
        check_spans(&dir, &what);
        parse(&std::fs::read_to_string(dir.join("result.json")).unwrap())
            .expect("result.json parses");
        let traces = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("perfetto-"))
            .count();
        assert_eq!(
            traces,
            perfbench::workload::workload(workload, true).unwrap().guests.len(),
            "{what}"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}
