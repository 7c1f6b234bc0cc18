//! `sigil replay` rejects a malformed trace file with a located error and
//! a failing exit status, instead of printing a report.

use std::path::PathBuf;
use std::process::Command;

use sigil_core::events_bin::{BinError, BinWriter, ChunkStream};
use sigil_core::TraceRecord;
use sigil_trace::{FunctionId, MemAccess, RuntimeEvent};

/// A scratch file path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sigil-replay-{}-{name}", std::process::id()))
}

/// Call main; Write [2^64−4; 8]; Call f; Read [2^64−4; 8]; Read [0; 4];
/// Return; Return — both accesses near the top run past the address
/// space.
fn past_the_top() -> Vec<TraceRecord> {
    let top = MemAccess::new(u64::MAX - 3, 8);
    let sym = |id: u32, name: &str| TraceRecord::Sym {
        id,
        name: name.to_owned(),
    };
    let event = TraceRecord::Event;
    vec![
        sym(0, "main"),
        sym(1, "f"),
        event(RuntimeEvent::Call {
            callee: FunctionId::from_raw(0),
        }),
        event(RuntimeEvent::Write { access: top }),
        event(RuntimeEvent::Call {
            callee: FunctionId::from_raw(1),
        }),
        event(RuntimeEvent::Read { access: top }),
        event(RuntimeEvent::Read {
            access: MemAccess::new(0, 4),
        }),
        event(RuntimeEvent::Return),
        event(RuntimeEvent::Return),
    ]
}

#[test]
fn access_past_the_address_space_fails_replay_at_its_offset() {
    let mut writer = BinWriter::new(Vec::new()).expect("in-memory writer");
    for record in &past_the_top() {
        writer.push(record).expect("in-memory writer");
    }
    let (_, bytes) = writer.finish().expect("in-memory writer");
    let path = scratch("past-the-top.sgtr");
    std::fs::write(&path, &bytes).expect("write trace file");

    // The library decoder locates the Write record.
    let mut stream = ChunkStream::<_, TraceRecord>::new(bytes.as_slice()).expect("header");
    let Err(BinError::Format { offset, .. }) = stream.next_chunk() else {
        panic!("the decoder accepted an access past the address space");
    };

    let out = Command::new(env!("CARGO_BIN_EXE_sigil"))
        .arg("replay")
        .arg(&path)
        .output()
        .expect("run sigil replay");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "printed a report for a bad trace");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("error:"))
        .unwrap_or_else(|| panic!("no error line in: {stderr}"));
    assert!(line.contains(&format!("offset {offset}")), "{line}");
    assert!(
        line.contains("past the end of the 64-bit address space"),
        "{line}"
    );
}
