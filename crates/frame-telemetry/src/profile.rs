//! Process-wide resource accounting attributed to thread roles.
//!
//! Every long-lived FRAME thread registers itself under a [`RoleKind`]
//! (reactor loop N, delivery worker N, detector, observability, sampler,
//! …) with [`register_thread_role`]. From then on three cost streams are
//! attributed to that role:
//!
//! - **Allocations** — the feature-gated [`CountingAlloc`]
//!   `#[global_allocator]` wrapper (feature `alloc-profile`, on by
//!   default) charges every heap alloc/dealloc to the calling thread's
//!   role slot: counts, bytes, live bytes and the peak.
//! - **CPU time** — threads stamp their own
//!   `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` reading via
//!   [`stamp_thread_cpu`] (a raw, dependency-free syscall; the clock only
//!   reads the *calling* thread, so each role thread stamps itself at
//!   natural throttle points in its loop). Stamps accumulate deltas, so
//!   ephemeral threads sharing a slot — e.g. per-connection observability
//!   scrape threads — still sum correctly.
//! - **Syscalls** — the ingress paths count their `read`/`write` calls
//!   through [`record_read_syscalls`] / [`record_write_syscalls`].
//!
//! The table is a fixed array of atomic slots: registration, counting and
//! snapshotting are all lock-free and allocation-free (the allocator hook
//! must never allocate). Slot 0 is the unattributed catch-all for threads
//! that never registered. Registration is idempotent per `(kind, index)`:
//! repeated broker instances in one process (benches, tests) reuse the
//! same slot, so counters are cumulative process-wide and callers diff
//! snapshots to scope a measurement.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// The thread roles cost is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RoleKind {
    /// A readiness-reactor event loop (`frame-reactor-{index}`); it also
    /// admits what it decodes, so it carries the Message Proxy's cost.
    Reactor,
    /// A delivery worker (`frame-delivery-{index}`).
    Worker,
    /// The failure-detector thread.
    Detector,
    /// Observability surface (HTTP accept loop + scrape connections).
    Obs,
    /// The metrics sampler thread.
    Sampler,
    /// The flight-recorder dump sink.
    FlightSink,
    /// Anything else that registered explicitly (client helpers, tests).
    Other,
}

impl RoleKind {
    /// Stable lowercase name; indexed kinds render as `name-{index}`.
    pub fn name(self) -> &'static str {
        match self {
            RoleKind::Reactor => "reactor",
            RoleKind::Worker => "worker",
            RoleKind::Detector => "detector",
            RoleKind::Obs => "obs",
            RoleKind::Sampler => "sampler",
            RoleKind::FlightSink => "flight-sink",
            RoleKind::Other => "other",
        }
    }

    /// Whether multiple instances of this role exist (so its display name
    /// carries the index).
    fn indexed(self) -> bool {
        matches!(self, RoleKind::Reactor | RoleKind::Worker)
    }

    /// Roles on the message hot path, counted into allocations-per-message.
    pub fn hot_path(self) -> bool {
        matches!(self, RoleKind::Reactor | RoleKind::Worker)
    }

    fn code(self) -> u64 {
        match self {
            RoleKind::Reactor => 1,
            RoleKind::Worker => 2,
            RoleKind::Detector => 3,
            RoleKind::Obs => 4,
            RoleKind::Sampler => 5,
            RoleKind::FlightSink => 6,
            RoleKind::Other => 7,
        }
    }

    fn from_code(code: u64) -> Option<RoleKind> {
        Some(match code {
            1 => RoleKind::Reactor,
            2 => RoleKind::Worker,
            3 => RoleKind::Detector,
            4 => RoleKind::Obs,
            5 => RoleKind::Sampler,
            6 => RoleKind::FlightSink,
            7 => RoleKind::Other,
            _ => return None,
        })
    }
}

/// Capacity of the role table. Roles are coarse (loops and workers cap in
/// the low tens), so this is generous; registration past it falls back to
/// the unattributed slot rather than failing.
const MAX_SLOTS: usize = 64;

/// One role's counters. All relaxed atomics: these are statistics, not
/// synchronization.
struct RoleSlot {
    /// `0` = free; otherwise `code << 32 | index + 1`.
    key: AtomicU64,
    allocs: AtomicU64,
    deallocs: AtomicU64,
    alloc_bytes: AtomicU64,
    dealloc_bytes: AtomicU64,
    /// Live heap bytes. Signed: a thread may free memory another thread's
    /// role allocated (cost lands on the freeing role, as with any
    /// sampling profiler).
    current_bytes: AtomicI64,
    peak_bytes: AtomicU64,
    cpu_ns: AtomicU64,
    read_syscalls: AtomicU64,
    write_syscalls: AtomicU64,
}

impl RoleSlot {
    const fn new() -> RoleSlot {
        RoleSlot {
            key: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
            dealloc_bytes: AtomicU64::new(0),
            current_bytes: AtomicI64::new(0),
            peak_bytes: AtomicU64::new(0),
            cpu_ns: AtomicU64::new(0),
            read_syscalls: AtomicU64::new(0),
            write_syscalls: AtomicU64::new(0),
        }
    }

    fn count_alloc(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.alloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
        let live = self
            .current_bytes
            .fetch_add(size as i64, Ordering::Relaxed)
            .saturating_add(size as i64);
        if live > 0 {
            self.peak_bytes.fetch_max(live as u64, Ordering::Relaxed);
        }
    }

    fn count_dealloc(&self, size: usize) {
        self.deallocs.fetch_add(1, Ordering::Relaxed);
        self.dealloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
        self.current_bytes.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

/// The process-wide role table. Slot 0 is pre-claimed as the unattributed
/// catch-all (`other-0` never shows; it snapshots as `unattributed`).
static SLOTS: [RoleSlot; MAX_SLOTS] = [const { RoleSlot::new() }; MAX_SLOTS];

thread_local! {
    /// Which slot this thread charges to (0 = unattributed).
    static CURRENT_SLOT: Cell<usize> = const { Cell::new(0) };
    /// The thread-CPU clock reading at the last stamp, so stamps add
    /// deltas (additive even when threads share a slot).
    static LAST_CPU_NS: Cell<u64> = const { Cell::new(0) };
}

fn slot_key(kind: RoleKind, index: usize) -> u64 {
    kind.code() << 32 | (index as u64 + 1)
}

/// Registers the calling thread under `(kind, index)` and baselines its
/// CPU clock. Idempotent: a `(kind, index)` pair always resolves to the
/// same slot, so respawned threads (new broker instances in one process)
/// keep accumulating into it. Returns the slot index (0 means the table
/// was full and the thread stays unattributed).
pub fn register_thread_role(kind: RoleKind, index: usize) -> usize {
    let key = slot_key(kind, index);
    // Slot 0 stays the catch-all; scan the rest, claiming the first free
    // slot if the key is new. A lost CAS race just means someone else
    // claimed it for the same or another key — re-examine the slot.
    let mut claimed = 0;
    for (i, slot) in SLOTS.iter().enumerate().skip(1) {
        match slot.key.load(Ordering::Acquire) {
            0 if slot
                .key
                .compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire)
                .map_or_else(|found| found == key, |_| true) =>
            {
                claimed = i;
                break;
            }
            k if k == key => {
                claimed = i;
                break;
            }
            _ => {}
        }
    }
    CURRENT_SLOT.with(|s| s.set(claimed));
    LAST_CPU_NS.with(|c| c.set(thread_cpu_now_ns()));
    claimed
}

/// The calling thread's current CPU-time clock
/// (`CLOCK_THREAD_CPUTIME_ID`), in nanoseconds — a raw syscall so no
/// libc dependency is needed. Returns 0 on platforms without the clock.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn thread_cpu_now_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: usize = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    let ret: isize;
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 228usize => ret, // __NR_clock_gettime
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") &mut ts as *mut Timespec,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        core::arch::asm!(
            "svc #0",
            in("x8") 113usize, // __NR_clock_gettime
            inlateout("x0") CLOCK_THREAD_CPUTIME_ID => ret,
            in("x1") &mut ts as *mut Timespec,
            options(nostack),
        );
    }
    if ret == 0 {
        (ts.sec as u64).saturating_mul(1_000_000_000) + ts.nsec as u64
    } else {
        0
    }
}

/// Fallback for platforms without the per-thread CPU clock syscall.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn thread_cpu_now_ns() -> u64 {
    0
}

/// Stamps the calling thread's CPU time into its role slot: reads the
/// thread-CPU clock and adds the delta since the previous stamp. Cheap
/// (one syscall), but role loops should still throttle it — every N
/// iterations, or once per blocking wait.
pub fn stamp_thread_cpu() {
    let now = thread_cpu_now_ns();
    let prev = LAST_CPU_NS.with(|c| c.replace(now));
    let delta = now.saturating_sub(prev);
    if delta == 0 {
        return;
    }
    let slot = CURRENT_SLOT.with(Cell::get);
    SLOTS[slot].cpu_ns.fetch_add(delta, Ordering::Relaxed);
}

/// Counts `n` kernel `read`-family calls against the calling thread's role.
pub fn record_read_syscalls(n: u64) {
    let slot = CURRENT_SLOT.with(Cell::get);
    SLOTS[slot].read_syscalls.fetch_add(n, Ordering::Relaxed);
}

/// Counts `n` kernel `write`-family calls against the calling thread's role.
pub fn record_write_syscalls(n: u64) {
    let slot = CURRENT_SLOT.with(Cell::get);
    SLOTS[slot].write_syscalls.fetch_add(n, Ordering::Relaxed);
}

/// One role's counters at a point in time. Cumulative since process
/// start; diff two snapshots to scope a measurement.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RoleProfileSnapshot {
    /// Display name: `reactor-0`, `worker-3`, `detector`, … or
    /// `unattributed` for slot 0.
    pub role: String,
    /// Heap allocations charged to this role.
    pub allocs: u64,
    /// Heap deallocations charged to this role.
    pub deallocs: u64,
    /// Total bytes allocated.
    pub alloc_bytes: u64,
    /// Total bytes freed.
    pub dealloc_bytes: u64,
    /// Live heap bytes right now (clamped at 0: cross-role frees can send
    /// the signed internal counter negative).
    pub current_bytes: u64,
    /// High-water mark of live heap bytes.
    pub peak_bytes: u64,
    /// CPU nanoseconds self-stamped by this role's threads.
    pub cpu_ns: u64,
    /// Kernel read-family calls counted on the ingress paths.
    pub read_syscalls: u64,
    /// Kernel write-family calls counted on the ingress paths.
    pub write_syscalls: u64,
    /// Whether this role sits on the message hot path (counted into
    /// allocations-per-message).
    #[serde(default)]
    pub hot_path: bool,
}

/// Snapshot of every registered role (plus the unattributed catch-all
/// when it saw any traffic), ordered by role kind then index — a
/// deterministic order for exporters.
pub fn snapshot_roles() -> Vec<RoleProfileSnapshot> {
    let mut out: Vec<(u64, RoleProfileSnapshot)> = Vec::new();
    for (i, slot) in SLOTS.iter().enumerate() {
        let key = slot.key.load(Ordering::Acquire);
        let (sort_key, role, hot) = if i == 0 {
            if slot.allocs.load(Ordering::Relaxed) == 0 && slot.cpu_ns.load(Ordering::Relaxed) == 0
            {
                continue;
            }
            (u64::MAX, "unattributed".to_string(), false)
        } else if key == 0 {
            continue;
        } else {
            let Some(kind) = RoleKind::from_code(key >> 32) else {
                continue;
            };
            let index = (key & u32::MAX as u64) - 1;
            let role = if kind.indexed() {
                format!("{}-{index}", kind.name())
            } else if index == 0 {
                kind.name().to_string()
            } else {
                format!("{}-{index}", kind.name())
            };
            (key, role, kind.hot_path())
        };
        out.push((
            sort_key,
            RoleProfileSnapshot {
                role,
                allocs: slot.allocs.load(Ordering::Relaxed),
                deallocs: slot.deallocs.load(Ordering::Relaxed),
                alloc_bytes: slot.alloc_bytes.load(Ordering::Relaxed),
                dealloc_bytes: slot.dealloc_bytes.load(Ordering::Relaxed),
                current_bytes: slot.current_bytes.load(Ordering::Relaxed).max(0) as u64,
                peak_bytes: slot.peak_bytes.load(Ordering::Relaxed),
                cpu_ns: slot.cpu_ns.load(Ordering::Relaxed),
                read_syscalls: slot.read_syscalls.load(Ordering::Relaxed),
                write_syscalls: slot.write_syscalls.load(Ordering::Relaxed),
                hot_path: hot,
            },
        ));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.role.cmp(&b.1.role)));
    out.into_iter().map(|(_, s)| s).collect()
}

/// Whether the counting global allocator is compiled in (feature
/// `alloc-profile`). When false, allocation counters stay zero and
/// allocations-per-message reads as 0.
pub fn alloc_profiling_enabled() -> bool {
    cfg!(feature = "alloc-profile")
}

/// A `#[global_allocator]` wrapper over the system allocator that charges
/// every allocation to the calling thread's role slot. The counting path
/// is a handful of relaxed atomic adds and never allocates; `try_with`
/// guards the thread-local against use during TLS teardown (falls back to
/// the unattributed slot).
pub struct CountingAlloc;

impl CountingAlloc {
    fn slot() -> &'static RoleSlot {
        let i = CURRENT_SLOT.try_with(Cell::get).unwrap_or(0);
        &SLOTS[i]
    }
}

// SAFETY: defers all allocation to `std::alloc::System`; the counting
// side effects are relaxed atomics with no safety impact.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = unsafe { std::alloc::System.alloc(layout) };
        if !p.is_null() {
            Self::slot().count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = unsafe { std::alloc::System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::slot().count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) };
        Self::slot().count_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { std::alloc::System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let slot = Self::slot();
            slot.count_dealloc(layout.size());
            slot.count_alloc(new_size);
        }
        p
    }
}

/// The installed instance (feature `alloc-profile`, on by default): every
/// binary linking `frame-telemetry` gets per-role allocation accounting.
/// Build with `--no-default-features` on this crate to fall back to the
/// plain system allocator.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    fn by_role(snap: &[RoleProfileSnapshot], role: &str) -> RoleProfileSnapshot {
        snap.iter()
            .find(|r| r.role == role)
            .unwrap_or_else(|| panic!("role {role} in snapshot"))
            .clone()
    }

    #[test]
    fn registration_is_idempotent_and_names_are_stable() {
        let a = register_thread_role(RoleKind::Other, 40);
        let b = register_thread_role(RoleKind::Other, 40);
        assert_eq!(a, b, "same (kind, index) resolves to the same slot");
        assert!(a != 0, "table had room");
        let roles = snapshot_roles();
        assert!(roles.iter().any(|r| r.role == "other-40"));
        // Indexed kinds carry their index; singletons at index 0 don't.
        assert_eq!(RoleKind::Worker.name(), "worker");
        assert_eq!(RoleKind::Detector.name(), "detector");
        // Reset this test thread to unattributed for other tests in the
        // same harness thread pool.
        CURRENT_SLOT.with(|s| s.set(0));
    }

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let start = thread_cpu_now_ns();
        // Spin enough to accrue visible CPU time (>1ms).
        let mut acc = 0u64;
        while thread_cpu_now_ns().saturating_sub(start) < 2_000_000 {
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * 31);
            }
        }
        assert!(acc != 42, "keep the loop alive");
        let end = thread_cpu_now_ns();
        assert!(end > start, "CLOCK_THREAD_CPUTIME_ID advances");
    }

    #[test]
    fn cpu_stamps_accumulate_deltas_into_the_slot() {
        register_thread_role(RoleKind::Other, 41);
        let before = by_role(&snapshot_roles(), "other-41").cpu_ns;
        // Burn CPU, then stamp.
        let t0 = thread_cpu_now_ns();
        let mut acc = 0u64;
        while thread_cpu_now_ns().saturating_sub(t0) < 2_000_000 {
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i ^ 0x5bd1e995);
            }
        }
        std::hint::black_box(acc);
        stamp_thread_cpu();
        let after = by_role(&snapshot_roles(), "other-41").cpu_ns;
        assert!(
            after >= before + 1_000_000,
            "stamp charged >=1ms of CPU: {before} -> {after}"
        );
        CURRENT_SLOT.with(|s| s.set(0));
    }

    #[test]
    fn syscall_counters_charge_the_current_role() {
        register_thread_role(RoleKind::Other, 42);
        let before = by_role(&snapshot_roles(), "other-42");
        record_read_syscalls(3);
        record_write_syscalls(2);
        let after = by_role(&snapshot_roles(), "other-42");
        assert_eq!(after.read_syscalls - before.read_syscalls, 3);
        assert_eq!(after.write_syscalls - before.write_syscalls, 2);
        CURRENT_SLOT.with(|s| s.set(0));
    }

    /// The satellite-task accuracy check: a known allocation pattern moves
    /// the registered role's counters by exactly the expected amounts.
    #[cfg(feature = "alloc-profile")]
    #[test]
    fn allocator_counts_a_known_pattern_exactly() {
        register_thread_role(RoleKind::Other, 43);
        let before = by_role(&snapshot_roles(), "other-43");
        const N: usize = 16;
        const SIZE: usize = 4096;
        let mut held: Vec<Vec<u8>> = Vec::with_capacity(N);
        for i in 0..N {
            let mut v = Vec::with_capacity(SIZE);
            v.push(i as u8);
            held.push(v);
        }
        let mid = by_role(&snapshot_roles(), "other-43");
        // N buffers of SIZE plus the holder vec itself: at least N+1
        // allocations and N*SIZE bytes, all still live.
        assert!(
            mid.allocs - before.allocs >= (N + 1) as u64,
            "allocs {} -> {}",
            before.allocs,
            mid.allocs
        );
        assert!(mid.alloc_bytes - before.alloc_bytes >= (N * SIZE) as u64);
        assert!(mid.current_bytes >= before.current_bytes + (N * SIZE) as u64);
        assert!(mid.peak_bytes >= before.current_bytes + (N * SIZE) as u64);
        drop(held);
        let after = by_role(&snapshot_roles(), "other-43");
        assert!(after.deallocs - mid.deallocs >= (N + 1) as u64);
        assert!(after.dealloc_bytes - mid.dealloc_bytes >= (N * SIZE) as u64);
        assert!(
            after.current_bytes + (N * SIZE) as u64 <= mid.current_bytes + SIZE as u64,
            "live bytes fall back after the drop"
        );
        CURRENT_SLOT.with(|s| s.set(0));
    }

    #[test]
    fn snapshot_is_serializable_and_ordered() {
        register_thread_role(RoleKind::Other, 44);
        CURRENT_SLOT.with(|s| s.set(0));
        let roles = snapshot_roles();
        let json = serde_json::to_string(&roles).expect("roles serialize");
        let back: Vec<RoleProfileSnapshot> =
            serde_json::from_str(&json).expect("roles deserialize");
        assert_eq!(roles, back);
        // Two immediate snapshots enumerate the same roles in the same
        // (kind-major, deterministic) order. Sibling tests may register a
        // role in between, and roles are never unregistered, so compare
        // the second snapshot restricted to the first one's roles.
        let first: Vec<String> = roles.into_iter().map(|r| r.role).collect();
        let again: Vec<String> = snapshot_roles()
            .into_iter()
            .map(|r| r.role)
            .filter(|role| first.contains(role))
            .collect();
        assert_eq!(first, again);
    }
}
