//! # Sharded coherence directory — organic conflicts from real threads
//!
//! The multi-core substrate (DESIGN §17): N [`Machine`](crate::Machine)s on
//! real OS threads share one [`Directory`], a MESI-ish per-line owner/sharer
//! map layered *over* each core's private per-line speculative R/W bits.
//! Every data access a core performs publishes its read/write intent; a
//! remote write to a line a core has speculatively read (or a remote read
//! of a line it has speculatively written) delivers an asynchronous
//! conflict message to that core's mailbox, which the core drains at its
//! next memory access and converts into a `Conflict` abort through the
//! exact same mid-block unapply path an overflow takes. Injected conflicts
//! (`FaultPlan`) remain available as an ablation; this module makes the
//! organic ones.
//!
//! ## Sharding
//!
//! Line states live in cache-line-padded stripes selected by a
//! multiplicative hash of the line index, so directory traffic from
//! different lines takes different locks and scales with core count
//! instead of serializing on one mutex. Critical sections are a single
//! hash-map operation plus at most `MAX_CORES` mailbox pushes. The only
//! lock order is stripe → mailbox; no path takes a stripe lock while
//! holding a mailbox lock, so the directory cannot deadlock.
//!
//! A transaction writes only the host cache lines it must: each counter
//! sits beside the lock its event already holds (publishes in the stripe,
//! messages in the victim's mailbox), a mailbox's lock, pending count and
//! first queued messages share one line, and a core's own view of what it
//! holds is a flat per-line table in its [`CoreLink`].
//!
//! ## Address spaces
//!
//! Keys are `(asid, line)` packed into one word: cores attached with
//! different address-space ids (different tenants in the `mt` harness)
//! never interact — their heaps are logically distinct even though the
//! simulated addresses collide numerically. Cores sharing an asid model
//! workers serving the same tenant over shared state: that is where
//! contention, SLE lock collisions, and governor-ladder climbs emerge.
//!
//! ## Conservation
//!
//! Every *signaled* message (one whose victim held a directory-registered
//! speculative claim on the line when the remote op was published) is
//! eventually classified by the victim at drain time as either a conflict
//! abort (`sig_aborts` — the registration, and with it the region, was
//! still live) or a benign race with a completed region (`sig_raced` — the
//! victim committed or aborted between the signal and the drain, so the
//! registration was already released; the remote op serialized after that
//! commit). After all mailboxes drain, `Directory::signaled()` equals the
//! sum of both buckets across cores, and no core has counted an
//! unsignaled conflict — the stress tests and the `mt` harness gate on
//! both.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::CacheSim;
use crate::stats::AbortReason;
use hasp_vm::fxhash::FxHashMap;

/// A core's identity within one [`Directory`] (index into mailboxes and
/// the per-line sharer bitmasks).
pub type CoreId = u8;

/// Maximum cores per directory — sharer sets are one `u64` bitmask.
pub const MAX_CORES: usize = 64;

/// Bits of the packed key that hold the line index; the asid sits above.
const LINE_BITS: u32 = 48;
const LINE_MASK: u64 = (1 << LINE_BITS) - 1;

/// Directory-visible state of one (asid, line): at most one exclusive
/// owner XOR any number of sharers, plus which cores currently hold a
/// *speculative* (in-region) claim registered with the directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineState {
    /// Exclusive writer, if any (always also set in `sharers`).
    pub owner: Option<CoreId>,
    /// Bitmask of cores holding the line (shared or exclusive).
    pub sharers: u64,
    /// Bitmask of cores with a live speculative-read registration.
    pub spec_readers: u64,
    /// Core with a live speculative-write registration, if any.
    pub spec_writer: Option<CoreId>,
}

impl LineState {
    fn is_empty(&self) -> bool {
        self.owner.is_none()
            && self.sharers == 0
            && self.spec_readers == 0
            && self.spec_writer.is_none()
    }
}

/// One coherence message queued to a core's mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohMsg {
    /// Packed (asid, line) key the remote op touched.
    pub key: u64,
    /// `true` = remote write (invalidate), `false` = remote read (downgrade).
    pub write: bool,
    /// The victim held a directory-registered speculative claim that the
    /// remote op collides with, sampled atomically under the stripe lock.
    /// Every signaled message must be accounted as an abort or a commit
    /// race (see the module docs on conservation).
    pub signal: bool,
}

impl CohMsg {
    /// The line index (asid stripped) — what the victim's cache keys on.
    pub fn line(&self) -> u64 {
        self.key & LINE_MASK
    }
}

/// One padded directory shard: a map slice guarded by its own mutex, with
/// the count of transactions taken on it. The count sits inside the lock,
/// so bumping it writes the host line the transaction already holds.
/// The alignment keeps hot stripes on distinct cache lines so uncontended
/// cores do not false-share lock words.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Stripe {
    map: Mutex<StripeMap>,
}

#[derive(Debug, Default)]
struct StripeMap {
    lines: FxHashMap<u64, LineState>,
    /// Directory transactions taken on this stripe (post-dedup publishes).
    publishes: u64,
}

/// One core's incoming message queue. The lock word, `pending` and the
/// first [`INLINE_MSGS`] queued messages share the mailbox's first 64-byte
/// host line, so a post and a pop each move that one line between the
/// poster and the victim. The second line holds what only posters write
/// (the message counters) and the overflow queue, touched only past the
/// inline slots. `pending` is the lock-free fast path: a core's access
/// hook reads it with one acquire load and only takes the queue lock when a
/// message is actually waiting.
#[repr(C, align(128))]
#[derive(Debug, Default)]
struct Mailbox {
    pending: AtomicU64,
    queue: Mutex<MsgQueue>,
}

/// Messages a mailbox holds on its first host line before spilling.
const INLINE_MSGS: usize = 2;

/// A mailbox's FIFO and its counters, all under the mailbox lock. The
/// oldest `min(len, INLINE_MSGS)` messages sit in `slots` as a ring
/// starting at `head`; the rest wait in `spill`, in order.
#[repr(C)]
#[derive(Debug, Default)]
struct MsgQueue {
    slots: [Option<CohMsg>; INLINE_MSGS],
    head: u8,
    /// Messages queued, inline and spilled.
    len: usize,
    /// Messages posted here with `signal = true` (conservation numerator).
    signaled: u64,
    /// Invalidation messages posted here (remote writes).
    invalidations: u64,
    /// Downgrade messages posted here (remote reads of an owned line).
    downgrades: u64,
    spill: VecDeque<CohMsg>,
}

impl MsgQueue {
    fn push(&mut self, msg: CohMsg) {
        if self.len < INLINE_MSGS {
            self.slots[(self.head as usize + self.len) % INLINE_MSGS] = Some(msg);
        } else {
            self.spill.push_back(msg);
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<CohMsg> {
        let head = self.head as usize;
        let msg = self.slots[head].take()?;
        // The freed slot is the ring's tail once `head` moves on, so the
        // oldest spilled message refills it and FIFO order holds.
        if self.len > INLINE_MSGS {
            self.slots[head] = self.spill.pop_front();
        }
        self.head = ((head + 1) % INLINE_MSGS) as u8;
        self.len -= 1;
        Some(msg)
    }
}

/// The sharded line directory shared (via `Arc`) by every core. Nothing in
/// it is written after construction: every counter lives in the stripe or
/// mailbox whose lock the counted event already holds.
#[derive(Debug)]
pub struct Directory {
    stripes: Box<[Stripe]>,
    /// `stripes.len() - 1` (stripe count is a power of two).
    mask: u64,
    mailboxes: Box<[Mailbox]>,
}

/// Default stripe count: enough that 8 hot cores rarely collide on a
/// stripe lock even with skewed line popularity.
const DEFAULT_STRIPES: usize = 64;

impl Directory {
    /// A directory for up to `cores` cores with the default stripe count.
    pub fn new(cores: usize) -> Arc<Directory> {
        Directory::with_stripes(cores, DEFAULT_STRIPES)
    }

    /// A directory with an explicit stripe count (rounded up to a power of
    /// two; the proptests use 1 stripe to force every line onto one lock).
    pub fn with_stripes(cores: usize, stripes: usize) -> Arc<Directory> {
        assert!((1..=MAX_CORES).contains(&cores), "1..={MAX_CORES} cores");
        let n = stripes.max(1).next_power_of_two();
        Arc::new(Directory {
            stripes: (0..n).map(|_| Stripe::default()).collect(),
            mask: n as u64 - 1,
            mailboxes: (0..cores).map(|_| Mailbox::default()).collect(),
        })
    }

    /// Number of cores (mailboxes) this directory serves.
    pub fn cores(&self) -> usize {
        self.mailboxes.len()
    }

    fn stripe(&self, key: u64) -> &Stripe {
        // Multiplicative mix (same constant family as the fxhash module):
        // adjacent lines land on different stripes, and the asid in the
        // high bits perturbs the whole sequence per tenant.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.stripes[(h >> 40 & self.mask) as usize]
    }

    /// Queues `msg` to core `to`, counting it in that mailbox.
    fn post(&self, to: CoreId, msg: CohMsg) {
        let mb = &self.mailboxes[to as usize];
        let mut q = mb.queue.lock().expect("mailbox");
        q.signaled += u64::from(msg.signal);
        if msg.write {
            q.invalidations += 1;
        } else {
            q.downgrades += 1;
        }
        q.push(msg);
        // The count changes only under the queue lock, in step with the
        // queue. Bumped after the unlock, the victim could pop this message
        // and decrement first; its count could then read 0 while another
        // message waits, and the post-publish re-drain would skip that one.
        mb.pending.fetch_add(1, Ordering::Release);
    }

    /// Publishes core `me`'s write intent for `key`: every other holder is
    /// invalidated (signaled iff it held a colliding speculative claim),
    /// `me` becomes exclusive owner, and — when `spec` — `me`'s
    /// speculative-write registration is recorded.
    pub fn publish_write(&self, me: CoreId, key: u64, spec: bool) {
        let my_bit = 1u64 << me;
        let mut map = self.stripe(key).map.lock().expect("stripe");
        map.publishes += 1;
        let st = map.lines.entry(key).or_default();
        let victims = st.sharers & !my_bit;
        let signaled_spec = st.spec_readers & !my_bit;
        let spec_writer = st.spec_writer.filter(|&w| w != me);
        st.owner = Some(me);
        st.sharers = my_bit;
        st.spec_readers &= my_bit;
        if st.spec_writer != Some(me) {
            st.spec_writer = None;
        }
        if spec {
            st.spec_writer = Some(me);
        }
        // Post while still holding the stripe lock (stripe → mailbox is the
        // one sanctioned lock order). This makes signal delivery atomic with
        // the spec-bit sampling above: a victim's `release_spec` — its exit
        // visa — takes this same stripe lock, so every signaled message is
        // enqueued strictly before the release that would let the victim
        // drain and detach. Posting after dropping the lock opens a window
        // where the victim quiesces and exits with the signal still in
        // flight, breaking the `signaled == sig_aborts + sig_raced`
        // conservation identity. Victims are visited by set bit, lowest
        // core first.
        let mut rest = victims;
        while rest != 0 {
            let v = rest.trailing_zeros() as CoreId;
            rest &= rest - 1;
            let signal = signaled_spec & (1 << v) != 0 || spec_writer == Some(v);
            self.post(
                v,
                CohMsg {
                    key,
                    write: true,
                    signal,
                },
            );
        }
        drop(map);
    }

    /// Publishes core `me`'s read intent for `key`: a remote exclusive
    /// owner is downgraded to sharer (signaled iff it held a speculative
    /// *write* registration — speculative readers coexist), `me` joins the
    /// sharers, and — when `spec` — `me`'s speculative-read registration
    /// is recorded.
    pub fn publish_read(&self, me: CoreId, key: u64, spec: bool) {
        let my_bit = 1u64 << me;
        let mut map = self.stripe(key).map.lock().expect("stripe");
        map.publishes += 1;
        let st = map.lines.entry(key).or_default();
        let victim = st.owner.filter(|&o| o != me);
        let signal = victim.is_some() && st.spec_writer == victim;
        if victim.is_some() {
            // The old owner keeps a shared copy; its spec-write claim (if
            // any) is consumed by the signal.
            st.owner = None;
            if signal {
                st.spec_writer = None;
            }
        }
        st.sharers |= my_bit;
        if spec {
            st.spec_readers |= my_bit;
        }
        // Under the stripe lock for the same conservation reason as
        // `publish_write`: the downgrade signal must be enqueued before the
        // victim's `release_spec` can observe its bits cleared and let the
        // victim quiesce.
        if let Some(v) = victim {
            self.post(
                v,
                CohMsg {
                    key,
                    write: false,
                    signal,
                },
            );
        }
        drop(map);
    }

    /// Withdraws core `me`'s speculative registrations on `key` — called
    /// for every line in a core's spec set when its region commits or
    /// aborts, strictly *after* the local cache's epoch bump (so a remote
    /// signal sampled before the release always finds a raced-with-commit
    /// victim, never a live one it fails to abort).
    pub fn release_spec(&self, me: CoreId, key: u64) {
        let my_bit = 1u64 << me;
        let mut map = self.stripe(key).map.lock().expect("stripe");
        if let Some(st) = map.lines.get_mut(&key) {
            st.spec_readers &= !my_bit;
            if st.spec_writer == Some(me) {
                st.spec_writer = None;
            }
            if st.is_empty() {
                map.lines.remove(&key);
            }
        }
    }

    /// `true` if core `me` has undelivered messages (one acquire load —
    /// the per-access fast path).
    pub fn pending(&self, me: CoreId) -> bool {
        self.mailboxes[me as usize].pending.load(Ordering::Acquire) != 0
    }

    /// Pops the oldest undelivered message for core `me`, if any.
    pub fn pop_msg(&self, me: CoreId) -> Option<CohMsg> {
        let mb = &self.mailboxes[me as usize];
        // Under the queue lock, like the increment in `post`.
        let mut q = mb.queue.lock().expect("mailbox");
        let msg = q.pop();
        if msg.is_some() {
            mb.pending.fetch_sub(1, Ordering::Release);
        }
        msg
    }

    /// Snapshot of one line's directory state (tests / inspection).
    pub fn line_state(&self, key: u64) -> LineState {
        self.stripe(key)
            .map
            .lock()
            .expect("stripe")
            .lines
            .get(&key)
            .copied()
            .unwrap_or_default()
    }

    /// Sums one counter over the mailboxes.
    fn mail_total(&self, count: impl Fn(&MsgQueue) -> u64) -> u64 {
        self.mailboxes
            .iter()
            .map(|mb| count(&mb.queue.lock().expect("mailbox")))
            .sum()
    }

    /// Total messages sent with a live speculative collision (conservation
    /// numerator; see the module docs).
    pub fn signaled(&self) -> u64 {
        self.mail_total(|q| q.signaled)
    }

    /// Total invalidation messages sent (remote writes).
    pub fn invalidations(&self) -> u64 {
        self.mail_total(|q| q.invalidations)
    }

    /// Total downgrade messages sent (remote reads of owned lines).
    pub fn downgrades(&self) -> u64 {
        self.mail_total(|q| q.downgrades)
    }

    /// Total directory transactions (post-dedup publishes).
    pub fn publishes(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.map.lock().expect("stripe").publishes)
            .sum()
    }

    /// Any key on which a core *other than* `me` currently holds a
    /// speculative registration, and whether that claim is a write. The
    /// antagonist in the 2-core stress test uses this to aim conflicting
    /// traffic at whatever the victim is speculating on right now.
    pub fn any_remote_spec_key(&self, me: CoreId) -> Option<(u64, bool)> {
        let my_bit = 1u64 << me;
        for s in self.stripes.iter() {
            let map = s.map.lock().expect("stripe");
            for (&key, st) in map.lines.iter() {
                if st.spec_readers & !my_bit != 0 {
                    return Some((key, false));
                }
                if st.spec_writer.is_some() && st.spec_writer != Some(me) {
                    return Some((key, true));
                }
            }
        }
        None
    }
}

/// Per-core coherence-traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Directory transactions this core published (post-dedup).
    pub published: u64,
    /// Messages this core drained from its mailbox.
    pub drained: u64,
    /// Signaled messages that aborted the region: they found a live local
    /// speculative bit, or a live registration whose bit the access had not
    /// marked yet (conservation bucket 1).
    pub sig_aborts: u64,
    /// Signaled messages whose registration was already released by a
    /// commit or abort (conservation bucket 2).
    pub sig_raced: u64,
    /// Unsignaled messages (plain capacity/sharing traffic).
    pub benign: u64,
    /// Unsignaled messages that still hit a live speculative bit: a live
    /// bit without a directory claim, which the protocol must never allow.
    /// They abort the region but sit in neither conservation bucket, so
    /// `signaled == sig_aborts + sig_raced` cannot balance by coincidence;
    /// gated at zero (debug builds assert on the first one).
    pub unsignaled_conflicts: u64,
}

impl LinkStats {
    /// Adds another link's counters into this one (per-field sums — the
    /// worker-pool harness's shard merge). Destructured, so a counter added
    /// to the struct does not compile until it is merged here too.
    pub fn merge(&mut self, other: &LinkStats) {
        let LinkStats {
            published,
            drained,
            sig_aborts,
            sig_raced,
            benign,
            unsignaled_conflicts,
        } = *other;
        self.published += published;
        self.drained += drained;
        self.sig_aborts += sig_aborts;
        self.sig_raced += sig_raced;
        self.benign += benign;
        self.unsignaled_conflicts += unsignaled_conflicts;
    }
}

/// One core's attachment to a shared [`Directory`]: identity, address
/// space, local dedup state, and the speculative registration set that
/// must be withdrawn at region commit/abort.
#[derive(Debug)]
pub struct CoreLink {
    dir: Arc<Directory>,
    core: CoreId,
    /// Asid tag pre-shifted into the key's high bits.
    tag: u64,
    /// One state byte per line of this link's address space, indexed by
    /// line and grown on demand (heap lines are dense above the bump
    /// allocator's base). The `SHARED`/`OWNED` bits are what this core
    /// believes it holds: publishing is skipped when the directory already
    /// knows everything an access would tell it, which makes repeat
    /// accesses to resident lines one local load. `SPEC_R`/`SPEC_W` are
    /// its speculative registrations live in the directory.
    lines: Vec<u8>,
    /// Keys with a live speculative registration, in registration order:
    /// the release order.
    spec_keys: Vec<u64>,
    /// Traffic counters.
    pub stats: LinkStats,
}

/// Held shared (the directory lists this core as a sharer).
const SHARED: u8 = 1;
/// Held exclusively (this core is the directory's owner).
const OWNED: u8 = 2;
const HELD: u8 = SHARED | OWNED;
/// Live speculative-read registration.
const SPEC_R: u8 = 4;
/// Live speculative-write registration.
const SPEC_W: u8 = 8;
const SPEC: u8 = SPEC_R | SPEC_W;

impl CoreLink {
    /// Attaches core `core` (address space `asid`) to `dir`.
    pub fn new(dir: Arc<Directory>, core: CoreId, asid: u16) -> CoreLink {
        assert!((core as usize) < dir.cores(), "core id out of range");
        CoreLink {
            dir,
            core,
            tag: u64::from(asid) << LINE_BITS,
            lines: Vec::new(),
            spec_keys: Vec::new(),
            stats: LinkStats::default(),
        }
    }

    /// This core's id.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The shared directory.
    pub fn directory(&self) -> &Arc<Directory> {
        &self.dir
    }

    /// One acquire load: does this core have undelivered messages?
    #[inline]
    pub fn pending(&self) -> bool {
        self.dir.pending(self.core)
    }

    /// The access hook (DESIGN §17), strictly ordered drain → publish →
    /// drain: undelivered remote ops are applied to `cache` first, then this
    /// access's intent on `line` is published (`write`, and `spec` for an
    /// access inside a region) so remote cores see it before our own
    /// speculative bits can depend on it, then the mailbox is drained again.
    /// Returns the abort reason when a drained message conflicts; the
    /// access must not touch the cache then.
    ///
    /// The re-drain after publish is what makes every conflicting message a
    /// *signaled* one: publishing takes the line's stripe lock, and every
    /// directory post rides some poster's stripe critical section, so once
    /// publish returns, any message sampled against our pre-registration
    /// state is already pending-visible — and is applied before this access
    /// can mark the local bit such a stale message would collide with.
    #[inline]
    pub fn access(
        &mut self,
        cache: &mut CacheSim,
        line: u64,
        write: bool,
        spec: bool,
    ) -> Option<AbortReason> {
        if self.pending() {
            if let Some(reason) = self.drain(cache) {
                return Some(reason);
            }
        }
        self.publish_and_redrain(cache, line, write, spec)
    }

    /// The access hook after its first drain. A skipped publish rests on
    /// the link's held bits, which a message posted since the first drain
    /// can have made stale: a remote read that downgraded a line this core
    /// owns would let a write go ahead unpublished, and the remote
    /// speculative reader would never see it. So a skip stands only if the
    /// mailbox is still empty right after it; otherwise drain and decide
    /// again.
    fn publish_and_redrain(
        &mut self,
        cache: &mut CacheSim,
        line: u64,
        write: bool,
        spec: bool,
    ) -> Option<AbortReason> {
        while !self.publish(line, write, spec) {
            if !self.pending() {
                return None;
            }
            if let Some(reason) = self.drain(cache) {
                return Some(reason);
            }
        }
        if self.pending() {
            self.drain(cache)
        } else {
            None
        }
    }

    /// Publishes intent for a local access to `line` (`write`, and whether
    /// the access is speculative, i.e. inside a region). Deduped: the
    /// directory is only consulted when this access adds information —
    /// first touch, shared→owned upgrade, or a new speculative claim.
    /// Returns whether it published.
    #[inline]
    pub fn publish(&mut self, line: u64, write: bool, spec: bool) -> bool {
        let i = line as usize;
        let st = self.lines.get(i).copied().unwrap_or(0);
        let spec_bit = if write { SPEC_W } else { SPEC_R };
        let spec_new = spec && st & spec_bit == 0;
        let upgrade = write && st & OWNED == 0;
        if st & HELD != 0 && !upgrade && !spec_new {
            return false;
        }
        self.stats.published += 1;
        let key = self.tag | line;
        let mut next = st;
        if write {
            self.dir.publish_write(self.core, key, spec);
            next = next & !SHARED | OWNED;
        } else {
            self.dir.publish_read(self.core, key, spec);
            if st & HELD == 0 {
                next |= SHARED;
            }
        }
        if spec {
            if st & SPEC == 0 {
                self.spec_keys.push(key);
            }
            next |= spec_bit;
        }
        if i >= self.lines.len() {
            self.lines.resize(i + 1, 0);
        }
        self.lines[i] = next;
        true
    }

    /// Drains the mailbox into `cache`, applying each remote op to the
    /// local cache model. Stops at the first conflicting message and
    /// returns the abort reason the caller must raise, always `Conflict`;
    /// remaining messages stay queued for the next drain.
    ///
    /// A message conflicts when it collides with a live current-epoch
    /// speculative bit, or when it is signaled and its key is in this
    /// link's live registration set. The second case is the access hook's
    /// ([`CoreLink::access`]) re-drain catching a signal aimed at the
    /// registration it just published, before the access marks the bit: the
    /// directory has
    /// consumed the claim, so letting the access go on would leave a live
    /// bit with no claim behind it (DESIGN §17 argues why the set never
    /// holds a stale registration here).
    pub fn drain(&mut self, cache: &mut CacheSim) -> Option<AbortReason> {
        while let Some(msg) = self.dir.pop_msg(self.core) {
            self.stats.drained += 1;
            let line = msg.line();
            // Keep the local dedup view coherent with what the directory
            // just did on the remote core's behalf. A key of another
            // address space names no line of this link.
            let mut st = 0;
            if msg.key & !LINE_MASK == self.tag {
                if let Some(s) = self.lines.get_mut(line as usize) {
                    if msg.write {
                        *s &= !HELD;
                    } else if *s & OWNED != 0 {
                        *s = *s & !OWNED | SHARED;
                    }
                    st = *s;
                }
            }
            let live_bit = if msg.write {
                cache.invalidate_line(line)
            } else {
                cache.downgrade_line(line)
            };
            // A conflict without a directory signal would mean the remote
            // published against stale registration state — impossible,
            // because spec registration precedes the local spec-bit mark
            // and release follows the local flash-clear. Release builds
            // count what this assert would have caught.
            debug_assert!(
                msg.signal || !live_bit,
                "unsignaled conflict: core {} key {:#x} write {} state-after {st:#x}",
                self.core,
                msg.key,
                msg.write,
            );
            let registered = msg.signal && st & SPEC != 0;
            if live_bit || registered {
                if msg.signal {
                    self.stats.sig_aborts += 1;
                } else {
                    self.stats.unsignaled_conflicts += 1;
                }
                return Some(AbortReason::Conflict);
            }
            if msg.signal {
                self.stats.sig_raced += 1;
            } else {
                self.stats.benign += 1;
            }
        }
        None
    }

    /// Drains everything left in the mailbox (teardown / between
    /// requests). Outside a region no live speculative bit exists, so no
    /// message can conflict; each is applied and classified normally.
    pub fn drain_quiesced(&mut self, cache: &mut CacheSim) {
        while let Some(reason) = self.drain(cache) {
            debug_assert!(false, "conflict {reason:?} while quiesced");
        }
    }

    /// Withdraws every directory speculative registration this core holds
    /// — called at region commit and abort, strictly after the cache's
    /// epoch bump (see [`Directory::release_spec`] for why the order
    /// matters).
    pub fn release_spec(&mut self) {
        for key in self.spec_keys.drain(..) {
            self.dir.release_spec(self.core, key);
            self.lines[(key & LINE_MASK) as usize] &= !SPEC;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;

    #[test]
    fn mailbox_lock_pending_and_inline_slots_share_one_host_line() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!((align_of::<Mailbox>(), size_of::<Mailbox>()), (128, 128));
        assert_eq!(size_of::<Option<CohMsg>>(), 16, "a slot is one message");
        assert_eq!(offset_of!(Mailbox, pending), 0);
        assert_eq!(offset_of!(MsgQueue, slots), 0);
        let mb = Mailbox::default();
        let base = &mb as *const Mailbox as usize;
        let lock = &mb.queue as *const Mutex<MsgQueue> as usize - base;
        let q = mb.queue.lock().expect("mailbox");
        let data = &*q as *const MsgQueue as usize - base;
        // The mutex keeps its (possibly unsized) data last: its lock word
        // sits between `pending` and the queue.
        assert!(8 <= lock && lock < data, "lock at {lock}, queue at {data}");
        let hot_end = data + offset_of!(MsgQueue, len) + size_of::<usize>();
        assert!(hot_end <= 64, "inline slots, head and len end at {hot_end}");
        let counters = data + offset_of!(MsgQueue, signaled);
        assert!(counters >= 64, "counters at {counters}, on the hot line");
    }

    #[test]
    fn write_invalidates_sharers_and_signals_spec_readers() {
        let dir = Directory::new(2);
        dir.publish_read(0, 0x40, true);
        assert_eq!(dir.line_state(0x40).spec_readers, 1);
        dir.publish_write(1, 0x40, false);
        let st = dir.line_state(0x40);
        assert_eq!(st.owner, Some(1));
        assert_eq!(st.sharers, 1 << 1);
        assert_eq!(st.spec_readers, 0);
        let msg = dir.pop_msg(0).expect("invalidation queued");
        assert!(msg.write && msg.signal);
        assert_eq!(dir.signaled(), 1);
        assert!(dir.pop_msg(0).is_none());
        assert!(dir.pop_msg(1).is_none());
    }

    #[test]
    fn read_downgrades_owner_and_signals_spec_writer() {
        let dir = Directory::new(2);
        dir.publish_write(0, 0x80, true);
        dir.publish_read(1, 0x80, false);
        let st = dir.line_state(0x80);
        assert_eq!(st.owner, None);
        assert_eq!(st.sharers, 0b11);
        assert_eq!(st.spec_writer, None, "claim consumed by the signal");
        let msg = dir.pop_msg(0).expect("downgrade queued");
        assert!(!msg.write && msg.signal);
    }

    #[test]
    fn readers_coexist_without_signals() {
        let dir = Directory::new(3);
        dir.publish_read(0, 0xc0, true);
        dir.publish_read(1, 0xc0, true);
        dir.publish_read(2, 0xc0, false);
        assert_eq!(dir.signaled(), 0);
        for c in 0..3 {
            assert!(!dir.pending(c));
        }
        assert_eq!(dir.line_state(0xc0).spec_readers, 0b11);
    }

    #[test]
    fn release_after_commit_turns_signal_into_race() {
        let dir = Directory::new(2);
        let hw = HwConfig::baseline();
        let mut cache_a = CacheSim::new(&hw);

        let mut link_a = CoreLink::new(Arc::clone(&dir), 0, 0);
        link_a.publish(0x40, false, true);
        // Core A commits: local flash-clear (epoch bump) then release.
        cache_a.commit_region();
        link_a.release_spec();
        // Core B's write raced: the signal (if sampled before release)
        // or plain invalidation (after) must classify as non-abort.
        dir.publish_write(1, 0x40, false);
        assert!(link_a.drain(&mut cache_a).is_none());
        assert_eq!(link_a.stats.sig_aborts, 0);
        assert_eq!(
            dir.signaled(),
            link_a.stats.sig_raced,
            "post-release signal count must match the raced bucket"
        );
    }

    #[test]
    fn signal_against_a_fresh_registration_conflicts_before_the_bit_is_marked() {
        // The access hook's window: link 0 has published a speculative
        // read, but the access has not marked the local bit yet, when a
        // remote write consumes the claim. The re-drain must abort the
        // region, not book a race and let the access mark a bit the
        // directory no longer knows about.
        let dir = Directory::new(2);
        let mut cache = CacheSim::new(&HwConfig::baseline());
        let mut link = CoreLink::new(Arc::clone(&dir), 0, 0);
        link.publish(0x40, false, true);
        dir.publish_write(1, 0x40, false);
        assert_eq!(link.drain(&mut cache), Some(AbortReason::Conflict));
        assert_eq!((link.stats.sig_aborts, link.stats.sig_raced), (1, 0));
        assert_eq!(dir.signaled(), link.stats.sig_aborts);
        assert_eq!(link.stats.unsignaled_conflicts, 0);
    }

    #[test]
    fn downgrade_between_first_drain_and_skipped_publish_still_invalidates() {
        // Core A owns line L. Its next write's first drain finds the
        // mailbox empty; then core B reads L speculatively, which downgrades
        // A. A's publish would be skipped on its stale "owned" view, and
        // without a second look the write would go ahead unpublished: the
        // directory would end with no owner, sharers {A, B}, B's
        // speculative read registered, and B never told of A's write.
        let dir = Directory::new(2);
        let hw = HwConfig::baseline();
        let (mut cache_a, mut cache_b) = (CacheSim::new(&hw), CacheSim::new(&hw));
        let mut a = CoreLink::new(Arc::clone(&dir), 0, 0);
        let mut b = CoreLink::new(Arc::clone(&dir), 1, 0);
        let line = 0x40;
        assert_eq!(a.access(&mut cache_a, line, true, false), None);
        assert_eq!(dir.line_state(line).owner, Some(0));

        assert!(!a.pending(), "A's first drain finds nothing");
        assert_eq!(b.access(&mut cache_b, line, false, true), None);
        assert!(a.pending(), "B's read downgraded A");
        assert_eq!(a.publish_and_redrain(&mut cache_a, line, true, false), None);

        let st = dir.line_state(line);
        assert_eq!((st.owner, st.sharers, st.spec_readers), (Some(0), 0b01, 0));
        assert!(b.pending(), "B must learn of A's write");
        assert_eq!(b.drain(&mut cache_b), Some(AbortReason::Conflict));
        assert_eq!((b.stats.sig_aborts, b.stats.unsignaled_conflicts), (1, 0));
        assert_eq!(dir.signaled(), b.stats.sig_aborts + b.stats.sig_raced);
        assert_eq!(a.stats.benign, 1, "A applied the downgrade first");
    }

    #[test]
    fn distinct_asids_never_interact() {
        let dir = Directory::new(2);
        let mut a = CoreLink::new(Arc::clone(&dir), 0, 1);
        let mut b = CoreLink::new(Arc::clone(&dir), 1, 2);
        a.publish(0x40, false, true);
        b.publish(0x40, true, true);
        assert!(!a.pending() && !b.pending());
        assert_eq!(dir.signaled(), 0);
    }

    #[test]
    fn a_message_for_another_asid_leaves_the_link_table_alone() {
        // Core 0 attached once per address space: the asid-2 link owns
        // line L, and an invalidation of the asid-1 key for L reaches core
        // 0's mailbox. It names no line of the asid-2 link, whose view of
        // L must survive the drain (its next write stays a skip).
        let dir = Directory::new(2);
        let mut cache = CacheSim::new(&HwConfig::baseline());
        let mut one = CoreLink::new(Arc::clone(&dir), 0, 1);
        let mut two = CoreLink::new(Arc::clone(&dir), 0, 2);
        let line = 0x40;
        assert!(two.publish(line, true, false));
        assert!(one.publish(line, false, false));
        dir.publish_write(1, (1 << LINE_BITS) | line, false);
        assert_eq!(two.drain(&mut cache), None);
        assert_eq!(two.stats.benign, 1);
        assert!(!two.publish(line, true, false), "asid 2 still owns L");
    }

    #[test]
    fn link_stats_merge_adds_every_field() {
        let a = LinkStats {
            published: 1,
            drained: 2,
            sig_aborts: 3,
            sig_raced: 4,
            benign: 5,
            unsignaled_conflicts: 6,
        };
        let b = LinkStats {
            published: 10,
            drained: 20,
            sig_aborts: 30,
            sig_raced: 40,
            benign: 50,
            unsignaled_conflicts: 60,
        };
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(
            sum,
            LinkStats {
                published: 11,
                drained: 22,
                sig_aborts: 33,
                sig_raced: 44,
                benign: 55,
                unsignaled_conflicts: 66,
            }
        );
        let mut zero = LinkStats::default();
        zero.merge(&a);
        assert_eq!(zero, a, "merging into zero is the identity");
    }

    #[test]
    fn dedup_skips_redundant_publishes() {
        let dir = Directory::new(2);
        let mut a = CoreLink::new(Arc::clone(&dir), 0, 0);
        assert!(a.publish(0x40, false, false));
        assert!(!a.publish(0x40, false, false)); // held shared, no new info
        assert_eq!(a.stats.published, 1);
        assert!(a.publish(0x40, false, true)); // new spec-read claim
        assert!(a.publish(0x40, true, true)); // shared→owned upgrade + spec write
        assert!(!a.publish(0x40, true, true)); // fully covered
        assert_eq!(a.stats.published, 3);
    }
}
