//! Byte-for-byte stdout of every `chameleon simtest` schedule, driven
//! through the built binary. The seed outcomes print digests of the
//! per-session logs and final checkpoints, so these lines pin the
//! simulation harness itself, not only its report formatting.

use std::process::Command;

fn simtest_stdout(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_chameleon"))
        .arg("simtest")
        .args(args)
        .output()
        .expect("chameleon binary runs");
    assert!(
        output.status.success(),
        "simtest {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

#[test]
fn sweep_and_replay_stdout_is_pinned() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["--seeds", "2"],
            "simtest: 2/2 seeds passed (1 faulted, 318 events)\n",
        ),
        (
            &["--replay", "1"],
            "simtest: seed 1 OK — 28 ops, 2 shards, faulted true, 162 events, \
             event digest 0x3d3d47e3, checkpoint crc 0x2126f165\n",
        ),
        (
            &["--crash-seeds", "1", "--crash-start-seed", "4"],
            "simtest: 1/1 crash seeds passed — 2 eviction boundaries killed and \
             recovered, 3 session recoveries, 0 unsynced record(s) lost to hostile disks\n",
        ),
        (
            &["--crash-replay", "3"],
            "simtest: crash seed 3 OK — 23 ops, 3 eviction boundaries, 2 session \
             recoveries, 1 record(s) lost to the hostile disk (file faults on)\n",
        ),
        (
            &["--route-seeds", "1"],
            "simtest: 1/1 route seeds passed — 1 session(s) handed off, 2 node kill(s) \
             re-homing 3 session(s) from shadows, 0 router restart(s) recovered \
             bit-identically, 0 faulted case(s); every schedule matched its single-node \
             reference\n",
        ),
        (
            &["--route-replay", "3"],
            "simtest: route seed 3 OK — 23 ops on 3 nodes, 1 handoff(s), 1 kill(s) \
             re-homing 1 session(s), 0 router restart(s) (faulted), log digest \
             0x0fe44596, checkpoint crc 0xedbde706\n",
        ),
        (
            &["--balance-seeds", "1", "--balance-start-seed", "2"],
            "simtest: 1/1 balance seeds passed — 0 online migration(s) performed, \
             2 skipped, 0 faulted case(s); every migration schedule matched its \
             unmigrated reference bit for bit\n",
        ),
        (
            &["--balance-replay", "2"],
            "simtest: balance seed 2 OK — 23 ops on 3 shards, 0 migration(s), \
             2 skipped, log digest 0x40a48a36, checkpoint crc 0x30dd7cff\n",
        ),
        (
            &["--quantized-seeds", "2"],
            "simtest: 2/2 quantized (int8) seeds passed (1 faulted, 318 events) — \
             shard-count invariance and replay determinism hold with packed latents\n",
        ),
    ];
    for (args, expected) in cases {
        assert_eq!(simtest_stdout(args), expected, "simtest {args:?}");
    }
}
