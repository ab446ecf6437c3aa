//! Fault-schedule pin: a fixed 300 bp DNA-gap pair run through
//! `compute_block_resilient` + `traceback_resilient` under seeded fault
//! plans must reproduce these exact recovery counters and fault-event
//! logs. Draws are keyed by `(epoch, ti, tj, attempt)` and corruption is
//! placed over the unpacked border bytes, so any change to the tile
//! sweep, the border store or the traceback that moves a draw, a
//! checksum or a cycle stamp shows up here as drift of a replayed
//! schedule.

use smx_align_core::{dp, Alignment, AlignmentConfig};
use smx_coproc::block::compute_block_resilient;
use smx_coproc::faults::{RecoveryAction, SilentKind};
use smx_coproc::traceback::traceback_block_resilient;
use smx_coproc::{
    BlockMode, FaultEvent, FaultKind, FaultPlan, FaultSession, RecoveryPolicy, RecoveryStats,
    SmxEngine,
};

/// A 300 bp query and a reference derived from it by seeded
/// substitutions, insertions and deletions (~6% each way).
fn pair() -> (Vec<u8>, Vec<u8>) {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let q: Vec<u8> = (0..300).map(|_| (next() % 4) as u8).collect();
    let mut r = Vec::with_capacity(320);
    for &c in &q {
        match next() % 50 {
            0 => r.push((c + 1 + (next() % 3) as u8) % 4), // substitution
            1 => {}                                        // deletion
            2 => {
                r.push(c);
                r.push((next() % 4) as u8); // insertion
            }
            _ => r.push(c),
        }
    }
    (q, r)
}

/// FNV-1a over one text line per event: the whole log, every field.
fn digest(events: &[FaultEvent]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for e in events {
        let line = format!(
            "{} {} {} {} {} {} {}\n",
            e.cycle, e.epoch, e.ti, e.tj, e.attempt, e.kind, e.action
        );
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Six rounds of block + traceback + result readout in one session.
fn run(plan: FaultPlan) -> (RecoveryStats, Vec<FaultEvent>, Vec<Option<SilentKind>>) {
    let cfg = AlignmentConfig::DnaGap;
    let scheme = cfg.scoring();
    let engine = SmxEngine::new(cfg.element_width(), &scheme).unwrap();
    let (q, r) = pair();
    let golden = dp::align_codes(&q, &r, &scheme);
    let mut s = FaultSession::new(plan, RecoveryPolicy::default());
    let mut silent = Vec::new();
    for _ in 0..6 {
        let out =
            compute_block_resilient(&engine, &q, &r, None, BlockMode::Traceback, &mut s).unwrap();
        let store = out.borders.as_ref().unwrap();
        let (cigar, _) = traceback_block_resilient(&engine, &q, &r, store, &mut s).unwrap();
        let mut aln = Alignment { score: out.score, cigar };
        assert_eq!(aln, golden, "recovered output must stay byte-identical");
        silent.push(s.corrupt_readout(&mut aln));
    }
    (s.stats(), s.events().to_vec(), silent)
}

/// What one plan must replay to: counters, event-log length and digest,
/// the first and last event, and the silent readout draws.
struct Pin {
    plan: FaultPlan,
    stats: RecoveryStats,
    events: usize,
    digest: u64,
    first: FaultEvent,
    last: FaultEvent,
    silent: [Option<SilentKind>; 6],
}

fn ev(cycle: u64, epoch: u64, ti: usize, tj: usize, kind: FaultKind) -> FaultEvent {
    FaultEvent { cycle, epoch, ti, tj, attempt: 0, kind, action: RecoveryAction::Retried }
}

fn stats(
    faults: u64,
    retries: u64,
    fallbacks: u64,
    cycles_lost: u64,
    silent: u64,
) -> RecoveryStats {
    RecoveryStats {
        tiles_computed: 2166,
        faults_injected: faults,
        faults_detected: faults,
        retries,
        fallbacks,
        software_alignments: 0,
        cycles_lost,
        silent_corruptions: silent,
    }
}

#[test]
fn fault_schedules_replay_exactly() {
    use FaultKind::{BorderCorrupt, WorkerStall};
    let low = (ev(394, 1, 0, 17, BorderCorrupt), ev(310_686, 11, 15, 14, WorkerStall));
    let high = (ev(4112, 1, 0, 0, WorkerStall), ev(2_167_773, 12, 0, 0, WorkerStall));
    let quiet = [None; 6];
    let flipped = [None, None, None, None, None, Some(SilentKind::OpFlip)];
    let pins = [
        Pin {
            plan: FaultPlan::new(42, 0.05),
            stats: stats(165, 156, 9, 266_481, 0),
            events: 165,
            digest: 0xdc83_9b7b_8eb1_1184,
            first: low.0,
            last: low.1,
            silent: quiet,
        },
        Pin {
            plan: FaultPlan::new(42, 0.5),
            stats: stats(1531, 1452, 79, 2_123_583, 0),
            events: 1531,
            digest: 0x3369_ab27_9557_04c2,
            first: high.0,
            last: high.1,
            silent: quiet,
        },
        Pin {
            plan: FaultPlan::new(42, 0.05).with_silent_rate(0.1),
            stats: stats(165, 156, 9, 266_481, 1),
            events: 165,
            digest: 0xdc83_9b7b_8eb1_1184,
            first: low.0,
            last: low.1,
            silent: flipped,
        },
        Pin {
            plan: FaultPlan::new(42, 0.5).with_silent_rate(0.1),
            stats: stats(1531, 1452, 79, 2_123_583, 1),
            events: 1531,
            digest: 0x3369_ab27_9557_04c2,
            first: high.0,
            last: high.1,
            silent: flipped,
        },
    ];
    for pin in pins {
        let label = format!("rate {} silent {}", pin.plan.rate(), pin.plan.silent_rate());
        let (stats, events, silent) = run(pin.plan);
        assert_eq!(stats, pin.stats, "{label}: recovery counters");
        assert_eq!(events.len(), pin.events, "{label}: event count");
        assert_eq!(events.first(), Some(&pin.first), "{label}: first event");
        assert_eq!(events.last(), Some(&pin.last), "{label}: last event");
        assert_eq!(digest(&events), pin.digest, "{label}: event-log digest");
        assert_eq!(silent, pin.silent, "{label}: silent readout draws");
    }
}
