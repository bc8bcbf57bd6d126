//! A sharded session store with LRU eviction, per-session locking, and a
//! pluggable persistence backend.
//!
//! Sessions hash onto [`SHARDS`] shard maps so concurrent requests for
//! different sessions rarely contend on the same lock, and each session is
//! behind its own `Mutex` so two requests for the *same* session serialize
//! without blocking its shard. A global capacity bound bounds *resident*
//! sessions: what happens to the session that falls off the LRU depends on
//! the [`SessionBackend`] — the in-memory backend destroys it, a durable
//! backend *demotes* it (the editor state is dropped, the program text
//! stays on disk) and [`SessionStore::get`] transparently faults it back
//! in on its next request.
//!
//! The durability discipline lives one layer down (see [`crate::persist`]):
//! the store journals creates and deletes before applying them, and wires
//! each resident session to the backend so commits do the same.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::persist::{JournalGauges, MemoryBackend, Op, SessionBackend};
use crate::session::Session;

/// Why an insert was refused.
#[derive(Debug)]
pub enum InsertError {
    /// The owner IP is at its *resident*-session quota; the session was
    /// not inserted.
    Quota,
    /// The owner IP is at its *durable*-session quota (sessions on disk,
    /// resident or demoted): demotion frees a resident slot but not a
    /// durable one, so this is the bound on disk footprint.
    DurableQuota,
    /// The create record could not be journaled; the session was not
    /// inserted (nothing may become visible that would not survive a
    /// restart).
    Journal(std::io::Error),
}

/// Number of shards; a power of two keeps the modulo cheap.
pub const SHARDS: usize = 16;

/// Stable shard selection: FNV-1a, *not* `DefaultHasher`, whose keys are
/// unspecified across std versions — a data directory must read back under
/// a binary built years later. One map serves three layers: the store's
/// in-memory shards, the journal's per-shard WALs, and the replication
/// protocol (a leader and follower agree on every record's shard).
pub fn shard_index(id: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % SHARDS
}

struct Entry {
    session: Arc<Mutex<Session>>,
    /// Logical access clock value at last touch (for LRU).
    touched: u64,
    /// The client IP that created the session (per-IP quota accounting);
    /// `None` for sessions created outside the HTTP boundary.
    owner: Option<IpAddr>,
}

/// The sharded store.
pub struct SessionStore {
    shards: Vec<Mutex<HashMap<String, Entry>>>,
    backend: Arc<dyn SessionBackend>,
    clock: AtomicU64,
    next_id: AtomicU64,
    /// Randomly-keyed hasher making session ids unpredictable: the id is
    /// the only capability a client holds, so it must not be computable
    /// from the (observable) session counter.
    id_key: RandomState,
    max_sessions: usize,
    evictions: AtomicU64,
    demotions: AtomicU64,
    /// Live sessions per creating IP, kept in lockstep with the shards
    /// (incremented under this lock before insert, decremented on remove).
    ip_counts: Mutex<HashMap<IpAddr, usize>>,
    /// The per-session timeline registry, when the server wired one in:
    /// demotion and fault-in are store-internal transitions the routes
    /// layer never sees, so the store records them itself.
    timelines: std::sync::OnceLock<Arc<crate::timeline::Timelines>>,
}

impl SessionStore {
    /// Creates a memory-only store bounded at `max_sessions` live
    /// sessions (eviction destroys, restart forgets).
    pub fn new(max_sessions: usize) -> SessionStore {
        SessionStore::with_backend(max_sessions, MemoryBackend::shared())
    }

    /// Creates a store bounded at `max_sessions` *resident* sessions over
    /// an explicit persistence backend.
    pub fn with_backend(max_sessions: usize, backend: Arc<dyn SessionBackend>) -> SessionStore {
        SessionStore {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            backend,
            clock: AtomicU64::new(1),
            next_id: AtomicU64::new(1),
            id_key: RandomState::new(),
            max_sessions: max_sessions.max(1),
            evictions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            ip_counts: Mutex::new(HashMap::new()),
            timelines: std::sync::OnceLock::new(),
        }
    }

    /// Wires the timeline registry in (once, at server construction) so
    /// demotions and fault-ins land on session timelines.
    pub fn set_timelines(&self, timelines: Arc<crate::timeline::Timelines>) {
        let _ = self.timelines.set(timelines);
    }

    fn timeline_event(&self, id: &str, kind: crate::timeline::Kind) {
        if let Some(tl) = self.timelines.get() {
            tl.record(id, kind, "");
        }
    }

    /// The persistence backend (for gauges and test harnesses).
    pub fn backend(&self) -> &Arc<dyn SessionBackend> {
        &self.backend
    }

    /// The backend's durability gauges.
    pub fn journal_gauges(&self) -> JournalGauges {
        self.backend.gauges()
    }

    fn shard_of(&self, id: &str) -> &Mutex<HashMap<String, Entry>> {
        &self.shards[shard_index(id)]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates a fresh session id: a readable counter plus a SipHash of
    /// it under a per-process random key (`RandomState`), so ids cannot be
    /// predicted from the counter alone.
    pub fn fresh_id(&self) -> String {
        let n = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut h = self.id_key.build_hasher();
        h.write_u64(n);
        format!("s{n:04}-{:016x}", h.finish())
    }

    /// Inserts a session, evicting (or demoting) the LRU session if the
    /// store is full.
    ///
    /// # Panics
    ///
    /// Panics on journal failure; test-harness convenience — the server
    /// path is [`try_insert`](SessionStore::try_insert).
    pub fn insert(&self, session: Session) -> Arc<Mutex<Session>> {
        self.try_insert(session, None, 0, 0).expect("insert")
    }

    /// Inserts a session on behalf of `owner`, enforcing `quota` live
    /// sessions per IP and `durable_quota` journaled sessions per IP
    /// (0 disables either). The create is journaled before the session
    /// becomes visible; the LRU session is evicted or demoted if the
    /// store is full.
    ///
    /// # Errors
    ///
    /// [`InsertError::Quota`] when `owner` already holds `quota` resident
    /// sessions; [`InsertError::DurableQuota`] when `owner` already has
    /// `durable_quota` sessions on disk (resident or demoted — demotion
    /// frees a resident slot, never a durable one, so a patient client
    /// cannot grow its disk footprint past the bound);
    /// [`InsertError::Journal`] when the create record cannot be made
    /// durable.
    pub fn try_insert(
        &self,
        session: Session,
        owner: Option<IpAddr>,
        quota: usize,
        durable_quota: usize,
    ) -> Result<Arc<Mutex<Session>>, InsertError> {
        if let Some(ip) = owner {
            let mut counts = self.ip_counts.lock().expect("ip counts lock");
            let count = counts.entry(ip).or_insert(0);
            if quota > 0 && *count >= quota {
                return Err(InsertError::Quota);
            }
            // Checked under the ip_counts lock so sequential creates see
            // each other; the backend count itself only grows at
            // `applied_create`, so a burst of concurrent creates can
            // overshoot by the burst width — the bound is a disk-usage
            // guard, not an exact count.
            if durable_quota > 0
                && self.backend.durable()
                && self.backend.durable_sessions_of(ip) >= durable_quota
            {
                return Err(InsertError::DurableQuota);
            }
            *count += 1;
        }
        let code = session.code();
        if let Err(e) = self.backend.append(Op::Create {
            id: &session.id,
            source: &code,
            owner,
        }) {
            if let Some(ip) = owner {
                self.release_ip(ip);
            }
            return Err(InsertError::Journal(e));
        }
        // Close the append/applied pairing immediately (the "apply" of a
        // create is just map publication): if anything below panics, the
        // backend already has a consistent session and fault-in recovers.
        self.backend.applied_create(&session.id, &code, owner);
        Ok(self.insert_resident(session, owner))
    }

    /// Adopts a session recovered by the backend's boot replay: it becomes
    /// resident (journaled already, so nothing is appended) and wired for
    /// future mutations.
    pub fn adopt(&self, session: Session) -> Arc<Mutex<Session>> {
        self.insert_resident(session, None)
    }

    /// Makes a session resident: attaches the persistence handle, makes
    /// room, and publishes it in its shard. If the id is already resident
    /// (two requests faulting in the same session), the existing entry
    /// wins and the freshly materialized copy is dropped.
    fn insert_resident(&self, mut session: Session, owner: Option<IpAddr>) -> Arc<Mutex<Session>> {
        if self.backend.durable() {
            session.attach_persist(Arc::clone(&self.backend));
        }
        if self.len() >= self.max_sessions {
            self.evict_lru();
        }
        let id = session.id.clone();
        let touched = self.tick();
        let mut shard = self.shard_of(&id).lock().expect("shard lock");
        if let Some(existing) = shard.get_mut(&id) {
            existing.touched = touched;
            return Arc::clone(&existing.session);
        }
        let arc = Arc::new(Mutex::new(session));
        shard.insert(
            id,
            Entry {
                session: Arc::clone(&arc),
                touched,
                owner,
            },
        );
        arc
    }

    /// Live sessions created by `ip` — a cheap pre-check so a client at
    /// quota is refused before its program text is even evaluated.
    pub fn ip_sessions(&self, ip: IpAddr) -> usize {
        self.ip_counts
            .lock()
            .expect("ip counts lock")
            .get(&ip)
            .copied()
            .unwrap_or(0)
    }

    fn release_ip(&self, ip: IpAddr) {
        let mut counts = self.ip_counts.lock().expect("ip counts lock");
        if let Some(count) = counts.get_mut(&ip) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                counts.remove(&ip);
            }
        }
    }

    /// Looks a session up, refreshing its LRU position. A session that was
    /// demoted to disk is transparently faulted back in (re-parsed,
    /// re-evaluated, re-prepared) — the caller cannot tell the difference
    /// beyond latency.
    pub fn get(&self, id: &str) -> Option<Arc<Mutex<Session>>> {
        // Bounded retry: a fresh materialization can go stale if a racing
        // fault-in published first, committed, and was demoted again —
        // all during our multi-ms prepare. Each retry re-materializes
        // from the then-current text; in practice the racing committer's
        // copy is still resident on the next pass, so one lap suffices.
        for _ in 0..8 {
            if let Some(arc) = self.get_resident(id) {
                return Some(arc);
            }
            if !self.backend.durable() {
                return None;
            }
            // Materialize outside any store lock — fault-in re-runs the
            // whole prepare pipeline. Publication re-checks the backend
            // under the shard lock: a DELETE that completed during
            // materialization removed the entry (publishing the zombie
            // would resurrect an acked-deleted session), and a *changed*
            // text means our copy predates an acked commit (publishing it
            // would roll that commit back, durably on its next apply).
            let mut session = self.backend.fault_in(id)?;
            session.attach_persist(Arc::clone(&self.backend));
            if self.len() >= self.max_sessions {
                self.evict_lru();
            }
            let touched = self.tick();
            let mut shard = self.shard_of(id).lock().expect("shard lock");
            if let Some(existing) = shard.get_mut(id) {
                // Another request faulted it in first; its copy wins.
                existing.touched = touched;
                return Some(Arc::clone(&existing.session));
            }
            match self.backend.code_of(id) {
                Some(code) if code == session.code() => {
                    let arc = Arc::new(Mutex::new(session));
                    shard.insert(
                        id.to_string(),
                        Entry {
                            session: Arc::clone(&arc),
                            touched,
                            owner: None,
                        },
                    );
                    drop(shard);
                    self.timeline_event(id, crate::timeline::Kind::FaultedIn);
                    return Some(arc);
                }
                Some(_) => continue, // stale copy; re-materialize
                None => return None, // deleted while we were materializing
            }
        }
        None
    }

    /// Looks a session up only if it is resident, refreshing its LRU
    /// position. A demoted session reads as absent: unlike
    /// [`get`](SessionStore::get), this never faults one in, so it never
    /// waits on the backend.
    pub fn get_resident(&self, id: &str) -> Option<Arc<Mutex<Session>>> {
        let mut shard = self.shard_of(id).lock().expect("shard lock");
        let entry = shard.get_mut(id)?;
        entry.touched = self.tick();
        Some(Arc::clone(&entry.session))
    }

    /// Removes a session everywhere — memory and backend. The delete is
    /// journaled before the session disappears from memory, and a
    /// resident session is tombstoned *under its own lock* first: that
    /// serializes the delete against any in-flight mutation (whose
    /// `applied` lands before ours) and stops requests already holding
    /// the `Arc` from re-journaling the session back into existence.
    ///
    /// # Errors
    ///
    /// The delete record could not be journaled; the session remains.
    pub fn remove(&self, id: &str) -> std::io::Result<bool> {
        let resident = self.get_resident(id);
        if resident.is_none() && !self.backend.contains(id) {
            return Ok(false);
        }
        match resident.as_ref().map(|session| session.lock()) {
            Some(Ok(mut guard)) => {
                self.backend.append(Op::Delete { id })?;
                guard.mark_deleted();
            }
            // A poisoned lock means the holder panicked mid-request; its
            // journal guard already reported the failure, and nothing can
            // mutate through a poisoned mutex, so skipping the tombstone
            // is safe.
            Some(Err(_)) | None => self.backend.append(Op::Delete { id })?,
        }
        self.backend.applied_delete(id);
        let removed = self.shard_of(id).lock().expect("shard lock").remove(id);
        if let Some(entry) = removed {
            // The entry found now may not be the one we tombstoned above
            // (a concurrent fault-in can have published a fresh copy);
            // mark it too. Its holders can no longer ack mutations either
            // way — the backend refuses appends for a deleted id.
            if let Ok(mut session) = entry.session.lock() {
                session.mark_deleted();
            }
            if let Some(ip) = entry.owner {
                self.release_ip(ip);
            }
        }
        Ok(true)
    }

    /// Drops a session from memory *without* touching the backend — for
    /// sessions whose in-memory state is suspect (a worker panicked while
    /// holding the session lock). Under a durable backend the session is
    /// not lost: its shadow still holds the last acknowledged state, and
    /// the next request faults it back in; under the memory backend this
    /// destroys it, as before.
    pub fn discard_resident(&self, id: &str) {
        let removed = self.shard_of(id).lock().expect("shard lock").remove(id);
        if let Some(Entry {
            owner: Some(ip), ..
        }) = removed
        {
            self.release_ip(ip);
        }
    }

    /// Number of *resident* sessions (a durable backend may hold more on
    /// disk; see [`SessionStore::journal_gauges`]).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").len())
            .sum()
    }

    /// Whether no session is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions destroyed to make room (memory backend only).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Sessions demoted to disk to make room (durable backend).
    pub fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }

    /// Drops least-recently-used *idle* sessions from memory until the
    /// store is back under its bound: *demotions* when the backend
    /// retains them durably, destroying *evictions* otherwise. Evicting
    /// until under the bound (not just once) is what lets residency
    /// recover after a busy burst pushed it over.
    ///
    /// Sessions a request currently holds (the handler's `Arc` clone
    /// lives from `get` to response) are never victims: demoting a
    /// session with a mutation in flight would let a concurrent fault-in
    /// re-materialize it from the not-yet-updated shadow. Neither are
    /// sessions mid-drag — the drag preview is deliberately not durable,
    /// so demotion would silently turn the upcoming commit into an acked
    /// no-op. If everything resident is busy, the store temporarily
    /// exceeds its bound; the next `evict_lru` drains the overshoot.
    fn evict_lru(&self) {
        while self.len() >= self.max_sessions {
            if !self.evict_one() {
                break; // everything resident is busy right now
            }
        }
    }

    /// One O(n) scan for the oldest currently-idle session, then removal
    /// (re-checking idleness under the victim's shard lock). Returns
    /// whether to keep trying: `false` only when no idle victim exists.
    fn evict_one(&self) -> bool {
        let idle_in = |entry: &Entry| {
            // A count of one means the entry's own Arc is the only
            // reference left, so try_lock cannot contend (a poisoned
            // lock disqualifies: state unknown).
            Arc::strong_count(&entry.session) == 1
                && entry
                    .session
                    .try_lock()
                    .map(|s| !s.dragging())
                    .unwrap_or(false)
        };
        let mut oldest: Option<(String, u64)> = None;
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            for (id, entry) in shard.iter() {
                if oldest.as_ref().is_none_or(|(_, t)| entry.touched < *t) && idle_in(entry) {
                    oldest = Some((id.clone(), entry.touched));
                }
            }
        }
        let Some((id, _)) = oldest else { return false };
        let entry = {
            let mut shard = self.shard_of(&id).lock().expect("shard lock");
            if !shard.get(&id).is_some_and(idle_in) {
                // The victim got busy between scan and removal; a rescan
                // will pick someone else.
                return true;
            }
            shard.remove(&id).expect("checked above")
        };
        if let Some(ip) = entry.owner {
            // A demoted session no longer holds one of its owner's quota
            // slots: the quota bounds concurrent *resident* work, while
            // the durable copy is just text.
            self.release_ip(ip);
        }
        if self.backend.durable() && self.backend.contains(&id) {
            self.demotions.fetch_add(1, Ordering::Relaxed);
            self.timeline_event(&id, crate::timeline::Kind::Demoted);
        } else {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn session(store: &SessionStore) -> Session {
        Session::create(store.fresh_id(), "(svg [(rect 'red' 1 2 3 4)])").unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let store = SessionStore::new(8);
        let s = session(&store);
        let id = s.id.clone();
        store.insert(s);
        assert!(store.get(&id).is_some());
        assert_eq!(store.len(), 1);
        assert!(store.remove(&id).unwrap());
        assert!(store.get(&id).is_none());
        assert!(store.is_empty());
        assert!(!store.remove(&id).unwrap());
    }

    #[test]
    fn lru_eviction_drops_the_coldest() {
        let store = SessionStore::new(3);
        let ids: Vec<String> = (0..3)
            .map(|_| {
                let s = session(&store);
                let id = s.id.clone();
                store.insert(s);
                id
            })
            .collect();
        // Touch the first two; the third is now coldest.
        store.get(&ids[0]).unwrap();
        store.get(&ids[1]).unwrap();
        store.insert(session(&store));
        assert_eq!(store.len(), 3);
        assert!(
            store.get(&ids[2]).is_none(),
            "coldest session should be evicted"
        );
        assert!(store.get(&ids[0]).is_some());
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.demotions(), 0);
    }

    #[test]
    fn per_ip_quota_is_enforced_and_released() {
        let store = SessionStore::new(8);
        let ip: std::net::IpAddr = "10.0.0.7".parse().unwrap();
        let other: std::net::IpAddr = "10.0.0.8".parse().unwrap();
        let a = session(&store);
        let a_id = a.id.clone();
        store.try_insert(a, Some(ip), 2, 0).unwrap();
        store.try_insert(session(&store), Some(ip), 2, 0).unwrap();
        assert_eq!(store.ip_sessions(ip), 2);
        assert!(matches!(
            store
                .try_insert(session(&store), Some(ip), 2, 0)
                .unwrap_err(),
            InsertError::Quota
        ));
        // Another IP is unaffected, and quota 0 disables the check.
        store
            .try_insert(session(&store), Some(other), 2, 0)
            .unwrap();
        store.try_insert(session(&store), None, 1, 0).unwrap();
        // Removing a session releases its owner's slot.
        assert!(store.remove(&a_id).unwrap());
        assert_eq!(store.ip_sessions(ip), 1);
        store.try_insert(session(&store), Some(ip), 2, 0).unwrap();
    }

    #[test]
    fn ids_are_unique() {
        let store = SessionStore::new(4);
        let a = store.fresh_id();
        let b = store.fresh_id();
        assert_ne!(a, b);
    }
}
