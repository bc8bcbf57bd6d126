//! Durability end to end, at the store/backend API level: journaled
//! traffic survives an abrupt "crash" (the backend is dropped with no
//! shutdown path — there *is* no shutdown path), demotion and fault-in
//! are invisible to clients, and recovery re-runs the incremental prepare
//! machinery to reproduce pre-crash state bit for bit — the same
//! equivalence standard `sns-sync/tests/incremental_equiv.rs` holds the
//! fast path to.

use std::path::PathBuf;
use std::sync::Arc;

use sns_server::json::Json;
use sns_server::session::Session;
use sns_server::store::SessionStore;
use sns_server::{JournalBackend, JournalConfig};
use sns_svg::{ShapeId, Zone};

/// Deterministic SplitMix64 (the repo's standard seeded harness).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn offset(&mut self) -> f64 {
        let mag = 1.0 + (self.next_u64() % 60) as f64 * 0.25;
        if self.next_u64().is_multiple_of(2) {
            mag
        } else {
            -mag
        }
    }
}

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sns-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &PathBuf, max_resident: usize) -> SessionStore {
    let (backend, recovered) = JournalBackend::open(JournalConfig::new(dir)).expect("open journal");
    let store = SessionStore::with_backend(max_resident, Arc::new(backend));
    for s in recovered {
        store.adopt(s);
    }
    store
}

/// Everything a client can observe about a session, as one string; two
/// sessions with equal fingerprints are indistinguishable over the API.
fn fingerprint(session: &Session) -> String {
    format!("{}\n{}", session.code(), session.canvas_json())
}

/// The active (shape, zone) pairs, read off the public canvas payload.
fn active_zones(session: &Session) -> Vec<(ShapeId, Zone)> {
    let canvas = session.canvas_json();
    let mut out = Vec::new();
    let Some(shapes) = canvas.get("shapes").and_then(Json::as_arr) else {
        return out;
    };
    for shape in shapes {
        let Some(id) = shape.get("id").and_then(Json::as_f64) else {
            continue;
        };
        let Some(zones) = shape.get("zones").and_then(Json::as_arr) else {
            continue;
        };
        for z in zones {
            if z.get("active") != Some(&Json::Bool(true)) {
                continue;
            }
            if let Some(zone) = z
                .get("zone")
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<Zone>().ok())
            {
                out.push((ShapeId(id as usize), zone));
            }
        }
    }
    out
}

/// Drives `commits` seeded drag-commit rounds through the session (via
/// the store, so every mutation takes the journaled path).
fn seeded_traffic(store: &SessionStore, id: &str, rng: &mut Rng, commits: usize) {
    for _ in 0..commits {
        let session = store.get(id).expect("session resident or faulted in");
        let mut s = session.lock().expect("session lock");
        let zones = active_zones(&s);
        if zones.is_empty() {
            return;
        }
        let (shape, zone) = zones[rng.below(zones.len())];
        let (dx, dy) = (rng.offset(), rng.offset());
        if s.drag(shape, zone, dx, dy).is_ok() {
            s.commit().expect("commit");
        }
    }
}

#[test]
fn acked_commits_survive_an_abrupt_crash_bit_for_bit() {
    let dir = data_dir("equiv");
    // A spread of corpus programs: recursion, trig traces, sliders.
    let slugs = ["three_boxes", "wave_boxes", "ferris_wheel", "logo"];
    let mut expected = Vec::new();
    {
        let store = open_store(&dir, 64);
        for (i, slug) in slugs.iter().enumerate() {
            let ex = sns_examples::by_slug(slug).expect("corpus slug");
            let session = Session::create(store.fresh_id(), ex.source).expect(slug);
            let id = session.id.clone();
            store.try_insert(session, None, 0, 0).expect("insert");
            let mut rng = Rng(0xC0FFEE + i as u64);
            seeded_traffic(&store, &id, &mut rng, 6);
            let arc = store.get(&id).unwrap();
            let s = arc.lock().unwrap();
            expected.push((id.clone(), fingerprint(&s)));
        }
        // No shutdown, no flush call: the store and backend just drop,
        // exactly like a killed process (minus the torn tail, which
        // journal::tests covers separately).
    }
    let store = open_store(&dir, 64);
    for (id, want) in &expected {
        let arc = store.get(id).unwrap_or_else(|| panic!("{id} lost"));
        let s = arc.lock().unwrap();
        assert_eq!(
            &fingerprint(&s),
            want,
            "recovered session {id} diverged from pre-crash state"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn demoted_sessions_fault_in_transparently_and_keep_committing() {
    let dir = data_dir("demote");
    let store = open_store(&dir, 2); // room for two resident sessions
    let mut ids = Vec::new();
    for i in 0..5 {
        let source = format!("(svg [(rect 'red' {} 20 30 40)])", 10 + i);
        let session = Session::create(store.fresh_id(), &source).expect("create");
        ids.push(session.id.clone());
        store.try_insert(session, None, 0, 0).expect("insert");
    }
    assert_eq!(store.len(), 2, "capacity bounds resident sessions");
    assert_eq!(store.demotions(), 3);
    assert_eq!(store.evictions(), 0, "durable eviction destroys nothing");
    assert_eq!(store.journal_gauges().durable_sessions, 5);

    // Every session — including the demoted ones — still answers, with
    // its own state, and accepts new commits.
    for (i, id) in ids.iter().enumerate() {
        let arc = store.get(id).unwrap_or_else(|| panic!("{id} unavailable"));
        let mut s = arc.lock().unwrap();
        assert!(s.code().contains(&format!("{}", 10 + i)), "{}", s.code());
        s.drag(ShapeId(0), Zone::Interior, 100.0, 0.0)
            .expect("drag");
        s.commit().expect("commit");
    }
    assert!(store.journal_gauges().faultins >= 3);

    // The post-fault-in commits are durable too.
    drop(store);
    let store = open_store(&dir, 8);
    for (i, id) in ids.iter().enumerate() {
        let arc = store.get(id).unwrap();
        let s = arc.lock().unwrap();
        assert_eq!(
            s.code(),
            format!("(svg [(rect 'red' {} 20 30 40)])", 110 + i)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn set_code_and_delete_are_durable() {
    let dir = data_dir("ops");
    let id;
    let doomed;
    {
        let store = open_store(&dir, 8);
        let session = Session::create(store.fresh_id(), "(svg [(rect 'red' 1 2 3 4)])").unwrap();
        id = session.id.clone();
        store.try_insert(session, None, 0, 0).unwrap();
        let arc = store.get(&id).unwrap();
        arc.lock()
            .unwrap()
            .set_code("(svg [(circle 'blue' 9 9 3)])")
            .expect("set_code");
        // A rejected replacement neither applies nor corrupts recovery.
        assert_eq!(
            arc.lock()
                .unwrap()
                .set_code("(svg [(oops)])")
                .unwrap_err()
                .status,
            422
        );

        let session = Session::create(store.fresh_id(), "(svg [(rect 'red' 5 6 7 8)])").unwrap();
        doomed = session.id.clone();
        store.try_insert(session, None, 0, 0).unwrap();
        assert!(store.remove(&doomed).unwrap());
    }
    let store = open_store(&dir, 8);
    assert_eq!(
        store.get(&id).unwrap().lock().unwrap().code(),
        "(svg [(circle 'blue' 9 9 3)])"
    );
    assert!(store.get(&doomed).is_none(), "deleted session resurrected");
    assert!(!store.backend().contains(&doomed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_after_compaction_is_bounded_by_live_state() {
    let dir = data_dir("bounded");
    let commits = 120usize;
    {
        let store = open_store(&dir, 8);
        let session =
            Session::create(store.fresh_id(), "(svg [(rect 'red' 10 20 30 40)])").unwrap();
        let id = session.id.clone();
        store.try_insert(session, None, 0, 0).unwrap();
        let mut rng = Rng(7);
        seeded_traffic(&store, &id, &mut rng, commits);
        // Compaction runs on the backend's maintenance thread, off the
        // request path — give it a tick or two to notice the threshold.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while store.journal_gauges().snapshot_count == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no compaction after {commits} commits: {:?}",
                store.journal_gauges()
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let g = store.journal_gauges();
        assert!(
            g.journal_records < commits as u64 / 2,
            "journal should have been compacted away: {g:?}"
        );
        assert!(
            g.fsyncs > commits as u64,
            "a lone writer leads its own group fsync per append: {g:?}"
        );
    }
    let g = open_store(&dir, 8).journal_gauges();
    assert_eq!(g.durable_sessions, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_wins_over_a_racing_commit() {
    // Sequential simulation of the DELETE-vs-commit race: a handler holds
    // the session Arc, the delete lands (journaled + acked), and the
    // handler then tries to commit. The tombstone must stop the commit
    // from re-journaling the session into existence.
    let dir = data_dir("del-race");
    let id;
    {
        let store = open_store(&dir, 8);
        let session =
            Session::create(store.fresh_id(), "(svg [(rect 'red' 10 20 30 40)])").expect("create");
        id = session.id.clone();
        store.try_insert(session, None, 0, 0).expect("insert");
        let arc = store.get(&id).expect("resident");
        arc.lock()
            .unwrap()
            .drag(ShapeId(0), Zone::Interior, 5.0, 0.0)
            .expect("drag");
        assert!(store.remove(&id).unwrap(), "delete acked");
        let mut s = arc.lock().unwrap();
        assert!(s.is_deleted(), "tombstone visible to the stale handle");
        let _ = s.commit(); // must not resurrect the shadow entry
        drop(s);
        assert!(
            !store.backend().contains(&id),
            "acked delete undone by a racing commit"
        );
    }
    let store = open_store(&dir, 8);
    assert!(
        store.get(&id).is_none(),
        "deleted session came back after restart"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_quota_caps_disk_not_just_residency() {
    // The resident quota releases on demotion, so a patient client could
    // otherwise grow its *disk* footprint without bound. The durable
    // quota counts shadow entries — resident or demoted — and only an
    // explicit delete frees a slot.
    let dir = data_dir("durable-quota");
    let store = open_store(&dir, 2); // tiny residency: forces demotion
    let ip: std::net::IpAddr = "10.9.9.9".parse().unwrap();
    let mut ids = Vec::new();
    for i in 0..3 {
        let source = format!("(svg [(rect 'red' {} 2 3 4)])", 10 + i);
        let session = Session::create(store.fresh_id(), &source).expect("create");
        ids.push(session.id.clone());
        // Resident quota generous (10), durable quota 3.
        store
            .try_insert(session, Some(ip), 10, 3)
            .expect("under durable quota");
    }
    // Only 2 resident (demotion released a resident slot), but 3 durable:
    // the fourth create must bounce even though residency has room.
    assert_eq!(store.len(), 2);
    assert_eq!(store.backend().durable_sessions_of(ip), 3);
    let session = Session::create(store.fresh_id(), "(svg [(rect 'red' 1 2 3 4)])").unwrap();
    assert!(matches!(
        store.try_insert(session, Some(ip), 10, 3).unwrap_err(),
        sns_server::store::InsertError::DurableQuota
    ));
    // Deleting one durable session frees a durable slot.
    assert!(store.remove(&ids[0]).unwrap());
    let session = Session::create(store.fresh_id(), "(svg [(rect 'red' 1 2 3 4)])").unwrap();
    store
        .try_insert(session, Some(ip), 10, 3)
        .expect("slot freed by delete");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_drag_sessions_are_not_demoted() {
    // A drag preview is deliberately not durable, so demoting a session
    // between its drag and its commit would silently turn that commit
    // into an acked no-op. The LRU must skip mid-drag sessions even when
    // over capacity.
    let dir = data_dir("drag-pin");
    let store = open_store(&dir, 1);
    let a = Session::create(store.fresh_id(), "(svg [(rect 'red' 10 20 30 40)])").unwrap();
    let id_a = a.id.clone();
    store.try_insert(a, None, 0, 0).unwrap();
    store
        .get(&id_a)
        .unwrap()
        .lock()
        .unwrap()
        .drag(ShapeId(0), Zone::Interior, 9.0, 0.0)
        .expect("drag");
    let b = Session::create(store.fresh_id(), "(svg [(circle 'blue' 5 5 2)])").unwrap();
    store.try_insert(b, None, 0, 0).unwrap();
    assert_eq!(store.len(), 2, "mid-drag session was demoted");
    assert_eq!(store.demotions(), 0);
    store.get(&id_a).unwrap().lock().unwrap().commit().unwrap();
    assert_eq!(
        store.get(&id_a).unwrap().lock().unwrap().code(),
        "(svg [(rect 'red' 19 20 30 40)])"
    );
    // Once the drag is committed the session is an ordinary LRU victim.
    let c = Session::create(store.fresh_id(), "(svg [(circle 'red' 7 7 2)])").unwrap();
    store.try_insert(c, None, 0, 0).unwrap();
    assert!(store.demotions() > 0, "idle sessions demote normally");
    let _ = std::fs::remove_dir_all(&dir);
}
