//! Seeded fuzz of the parsers that read files from outside the process:
//! `Snapshot::parse` (`--resume`), `Event::from_json_line` (traces),
//! `ProfileReport::from_json` (`--profile`) and the `Value::parse` all
//! three share, plus `bc_data::csv::parse_csv` (`--data`, `--complete`).
//!
//! Canonical documents — the checkpoints, trace and profile of a seeded
//! run under a fault-injecting platform, plus the committed oracle corpus —
//! are mutated byte-wise (truncate, flip, duplicate, splice, deepen) by a
//! fixed-seed generator. The property: nothing panics, and every accepted
//! input re-serializes to text that parses back to the same value.
//! Mutated snapshots are also re-sealed with a matching footer, so that
//! their sections reach the value parser instead of failing the checksum.
//! CSV files — header plus rows with `?` cells — get the same mutations
//! but the nesting one, and an accepted file must survive `to_csv`.

use bayescrowd::prelude::*;
use bc_crowd::{FaultConfig, FaultyPlatform, GroundTruthOracle, SimulatedPlatform};
use bc_data::csv::{parse_csv, to_csv};
use bc_data::generators::nba::nba_like;
use bc_data::generators::sample::{paper_completion, paper_dataset};
use bc_data::missing::inject_mcar;
use bc_obs::{ProfileReport, RunProfiler, Tee};
use bc_snapshot::{fnv1a64, Snapshot, Value, MAX_DEPTH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 3_000;

struct Corpus {
    snapshots: Vec<Vec<u8>>,
    trace_lines: Vec<String>,
    profile: String,
}

/// A checkpoint after every round of a faulty-platform run (the deepest
/// snapshots the session writes), its trace and its profile, plus the
/// oracle corpus snapshots.
fn corpus() -> Corpus {
    let sim = SimulatedPlatform::new(GroundTruthOracle::new(paper_completion()), 0.8, 5);
    let faults = FaultConfig {
        expiry_prob: 0.25,
        spammer_rate: 0.2,
        straggler_prob: 0.2,
        duplicate_prob: 0.1,
        ..Default::default()
    };
    let mut platform = FaultyPlatform::new(sim, faults, 17);
    let config = BayesCrowdConfig {
        budget: 20,
        latency: 10,
        alpha: 1.0,
        strategy: TaskStrategy::Hhs { m: 2 },
        ..Default::default()
    };
    let mut metrics = MetricsRecorder::new();
    let mut profiler = RunProfiler::new();
    let mut snapshots = Vec::new();
    {
        let mut obs = Tee::new(&mut metrics, &mut profiler);
        let mut session = BayesCrowd::new(config)
            .session_observed(&paper_dataset(), &mut platform, &mut obs)
            .expect("session starts");
        loop {
            let mut buf = Vec::new();
            session.checkpoint(&mut buf).expect("checkpoint");
            snapshots.push(buf);
            if !session.step().expect("step") {
                break;
            }
        }
        let _ = session.finalize();
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bc-oracle/corpus");
    let mut committed: Vec<_> = std::fs::read_dir(dir)
        .expect("oracle corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bcsnap"))
        .collect();
    committed.sort();
    for path in committed {
        snapshots.push(std::fs::read(path).expect("corpus file"));
    }
    let trace_lines = metrics
        .events()
        .iter()
        .enumerate()
        .map(|(i, e)| e.to_json_line(i as u64))
        .collect();
    Corpus {
        snapshots,
        trace_lines,
        profile: profiler.report().to_json(),
    }
}

/// Bytes a flip draws from: JSON structure, number and keyword letters,
/// escapes, whitespace, and one byte that is never valid UTF-8.
const ALPHABET: &[u8] = b"{}[]\",:\\/ \t\n\r0123456789-+.eEntrufalsNinbu\xff";

/// The bytes a CSV flip draws from: digits, signs, the dialect's
/// separators and `?`, whitespace, a letter and a non-UTF-8 byte.
const CSV_ALPHABET: &[u8] = b"0123456789+-?,: \t\n\rx\xff";

/// The kinds of mutation: truncate, flip, duplicate, splice and deepen.
const ALL_KINDS: u8 = 5;

/// One to three stacked mutations of `doc`, each one of the first `kinds`
/// kinds (see [`ALL_KINDS`]); flips draw from `alphabet` and `other`
/// feeds splices.
fn mutate(rng: &mut StdRng, doc: &[u8], other: &[u8], alphabet: &[u8], kinds: u8) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        let len = out.len();
        match rng.gen_range(0..kinds) {
            0 => out.truncate(rng.gen_range(0..=len)),
            1 if len > 0 => {
                let i = rng.gen_range(0..len);
                out[i] = alphabet[rng.gen_range(0..alphabet.len())];
            }
            2 => {
                let a = rng.gen_range(0..=len);
                let b = rng.gen_range(a..=len.min(a + 64));
                let at = rng.gen_range(0..=len);
                let chunk = out[a..b].to_vec();
                out.splice(at..at, chunk);
            }
            3 if !other.is_empty() => {
                let a = rng.gen_range(0..other.len());
                let b = rng.gen_range(a..=other.len().min(a + 64));
                let (x, y) = (rng.gen_range(0..=len), rng.gen_range(0..=len));
                out.splice(x.min(y)..x.max(y), other[a..b].iter().copied());
            }
            _ => {
                let k = rng.gen_range(1..=2 * MAX_DEPTH);
                let a = rng.gen_range(0..=len);
                let b = rng.gen_range(a..=len);
                let (open, close) = if rng.gen_bool(0.5) {
                    (b'[', b']')
                } else {
                    (b'{', b'}')
                };
                out.splice(b..b, std::iter::repeat_n(close, k));
                out.splice(a..a, std::iter::repeat_n(open, k));
            }
        }
    }
    out
}

/// `text` framed as a document again: its lines up to the first footer,
/// then a footer whose section count and checksum match them.
fn reseal(text: &str) -> String {
    let lines: Vec<&str> = text
        .lines()
        .take_while(|l| !l.starts_with("{\"sections\""))
        .collect();
    let mut body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let checksum = fnv1a64(body.as_bytes());
    let footer = Value::obj(vec![
        (
            "sections",
            Value::Int(lines.len().saturating_sub(1) as i128),
        ),
        ("checksum", Value::Str(format!("{checksum:016x}"))),
    ]);
    body += &footer.to_json();
    body.push('\n');
    body
}

/// An accepted value re-serializes to JSON that parses back to the same
/// value (compared by bytes: `NaN != NaN`).
fn check_value(text: &str) -> bool {
    let Ok(v) = Value::parse(text) else {
        return false;
    };
    let json = v.to_json();
    let back = Value::parse(&json).unwrap_or_else(|e| panic!("{json:?} does not parse: {e}"));
    assert_eq!(back.to_json(), json);
    true
}

fn check_snapshot(bytes: &[u8]) -> bool {
    let Ok(snap) = Snapshot::parse(bytes) else {
        return false;
    };
    let mut out = Vec::new();
    snap.write_to(&mut out).expect("writes to memory");
    let back = Snapshot::parse(&out[..]).unwrap_or_else(|e| panic!("re-serialized: {e}"));
    assert_eq!(back.fingerprint(), snap.fingerprint());
    let mut again = Vec::new();
    back.write_to(&mut again).expect("writes to memory");
    assert_eq!(again, out);
    true
}

fn check_event(line: &str) -> bool {
    let Some((seq, event)) = bc_obs::Event::from_json_line(line) else {
        return false;
    };
    let again = event.to_json_line(seq);
    assert_eq!(
        bc_obs::Event::from_json_line(&again),
        Some((seq, event)),
        "{again}"
    );
    true
}

fn check_profile(text: &str) -> bool {
    let Ok(report) = ProfileReport::from_json(text) else {
        return false;
    };
    let again = report.to_json();
    assert_eq!(ProfileReport::from_json(&again).as_ref(), Ok(&report));
    true
}

#[test]
fn mutated_documents_never_panic_and_accepted_ones_round_trip() {
    let corpus = corpus();
    assert!(corpus.snapshots.len() > 8 && corpus.trace_lines.len() > 10);
    let mut rng = StdRng::seed_from_u64(0x5eed_f022);
    let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n);
    // Accepted inputs per target: raw snapshots, resealed snapshots,
    // trace lines, profiles, raw values.
    let mut accepted = [0usize; 5];
    for _ in 0..CASES {
        let snap = &corpus.snapshots[pick(&mut rng, corpus.snapshots.len())];
        let other = &corpus.snapshots[pick(&mut rng, corpus.snapshots.len())];
        let raw = mutate(&mut rng, snap, other, ALPHABET, ALL_KINDS);
        accepted[0] += check_snapshot(&raw) as usize;
        let sealed = reseal(&String::from_utf8_lossy(&raw));
        accepted[1] += check_snapshot(sealed.as_bytes()) as usize;

        let line = &corpus.trace_lines[pick(&mut rng, corpus.trace_lines.len())];
        let other = &corpus.trace_lines[pick(&mut rng, corpus.trace_lines.len())];
        let text = mutate(
            &mut rng,
            line.as_bytes(),
            other.as_bytes(),
            ALPHABET,
            ALL_KINDS,
        );
        let text = String::from_utf8_lossy(&text).into_owned();
        accepted[2] += check_event(&text) as usize;
        accepted[4] += check_value(&text) as usize;

        let prof = corpus.profile.as_bytes();
        let text = mutate(&mut rng, prof, line.as_bytes(), ALPHABET, ALL_KINDS);
        let text = String::from_utf8_lossy(&text).into_owned();
        accepted[3] += check_profile(&text) as usize;
        accepted[4] += check_value(&text) as usize;
    }
    // Every target but the raw snapshots, whose checksum rejects nearly
    // every mutation, saw accepted inputs (so the round-trip property was
    // exercised), and none accepts everything.
    for (i, &n) in accepted.iter().enumerate().skip(1) {
        assert!(n > 0 && n < CASES * 2, "target {i} accepted {n}");
    }
}

/// An accepted CSV file is written back by `to_csv` as text that parses
/// to the same domains and rows, and is written again byte for byte.
fn check_csv(text: &str) -> bool {
    let Ok(data) = parse_csv("fuzz", text) else {
        return false;
    };
    let written = to_csv(&data);
    let back = parse_csv("fuzz", &written).unwrap_or_else(|e| panic!("{written:?}: {e}"));
    assert_eq!(back.domains(), data.domains(), "{text:?}");
    assert_eq!(back.n_objects(), data.n_objects(), "{text:?}");
    for o in data.objects() {
        assert_eq!(back.row(o), data.row(o), "{text:?}");
    }
    assert_eq!(to_csv(&back), written);
    true
}

#[test]
fn mutated_csv_files_never_panic_and_accepted_ones_round_trip() {
    // Truncate, flip, duplicate and splice; the deepening mutation is for
    // nested documents.
    const CSV_KINDS: u8 = 4;
    let (nba, _) = inject_mcar(&nba_like(12, 3), 0.25, 5);
    let files = [
        to_csv(&paper_dataset()),
        to_csv(&nba),
        "points:10,rebounds:10,assists:10\n5,2,3\n6,?,2\n".to_string(),
    ];
    for file in &files {
        assert!(file.contains('?') && check_csv(file), "{file}");
    }
    let mut rng = StdRng::seed_from_u64(0xc5f_f022);
    let mut accepted = 0;
    for _ in 0..CASES {
        let file = &files[rng.gen_range(0..files.len())];
        let other = &files[rng.gen_range(0..files.len())];
        let text = mutate(
            &mut rng,
            file.as_bytes(),
            other.as_bytes(),
            CSV_ALPHABET,
            CSV_KINDS,
        );
        accepted += check_csv(&String::from_utf8_lossy(&text)) as usize;
    }
    assert!(accepted > 0 && accepted < CASES, "accepted {accepted}");
}

#[test]
fn canonical_documents_stay_far_below_the_depth_bound() {
    fn depth(v: &Value) -> usize {
        match v {
            Value::List(xs) => 1 + xs.iter().map(depth).max().unwrap_or(0),
            Value::Map(es) => 1 + es.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }
    let corpus = corpus();
    let snapshot_lines = corpus
        .snapshots
        .iter()
        .flat_map(|s| std::str::from_utf8(s).expect("utf-8").lines());
    let deepest = snapshot_lines
        .chain(corpus.trace_lines.iter().map(String::as_str))
        .chain([corpus.profile.as_str()])
        .map(|text| depth(&Value::parse(text).expect("canonical documents parse")))
        .max()
        .expect("non-empty corpus");
    assert!(deepest * 8 <= MAX_DEPTH, "deepest document nests {deepest}");
}
