// Package sched implements a user-level fork-join work-stealing runtime —
// the substrate the paper's hybrid scheme plugs into (OpenCilk in the
// paper; built here from scratch over goroutines, per the reproduction
// plan in DESIGN.md).
//
// A Pool owns P workers, each a dedicated goroutine with its own Chase–Lev
// deque. Work is expressed as fork-join tasks: a running task Spawns
// children bound to a Group and Waits on the Group, during which the
// worker *helps* — it pops its own deque and steals from random victims —
// so workers never block while runnable work exists. This mirrors the
// work-first discipline of the paper's Section II substrate: the owner
// executes its deque bottom-up (LIFO, cache-hot), thieves steal top-down
// (FIFO, the biggest remaining piece).
//
// The Pool additionally implements the paper's DoHybridLoop steal
// protocol: active hybrid loops register themselves, and an idle worker w
// that would otherwise steal at random first probes each registered loop's
// partition structure; if w's designated partition A[w] is unclaimed, the
// worker enters the loop's claim sequence with its own worker ID
// (Section III, "Steal protocol for DoHybridLoop frames").
//
// # Wake policy
//
// Idle workers park on a per-worker wake-token channel. Making work
// visible (Spawn, external submission, loop registration) wakes exactly
// ONE parked worker, chosen round-robin — never all of them, avoiding the
// thundering herd of a broadcast (cf. Rokos et al., "An Interrupt-Driven
// Work-Sharing For-Loop Scheduler"). Throughput is preserved by wake
// chaining: a worker that acquires work and observes surplus behind it —
// a steal from a victim whose deque is still non-empty, an injected task
// with more queued behind it, or a hybrid-loop claim with partitions
// still unclaimed — wakes the next parked worker before executing, so
// wakeups propagate one hop per surplus observation while work remains.
//
// Lost-wakeup freedom relies on the announce-then-sweep handshake: a
// worker announces parking (its state word, then the pool's nparked
// counter) *before* its final sweep for work, and every producer makes
// work visible *before* reading nparked. If the producer reads
// nparked == 0, the parker's announce — and hence its final sweep —
// happens after the work was published, so the sweep finds it; otherwise
// the producer delivers a wake (or observes one already pending, which
// guarantees a future full sweep by that worker).
//
// Parking itself is a futex-style single-word wait: each worker carries a
// four-state word (active → parking → parked, with notified as the wake
// edge from either of the latter two). The uncontended wake is one CAS;
// only a wake that catches the worker fully parked touches the worker's
// capacity-1 token channel, and a wake that lands during the parking
// announcement is consumed without any channel traffic at all. No path
// allocates. See Worker.wake and Worker.mainLoop.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hybridloop/internal/deque"
	"hybridloop/internal/rng"
)

// Task is a unit of work executed by a worker. Tasks must not block on
// anything other than Group.Wait (which helps rather than blocking).
type Task func(w *Worker)

// Group tracks a set of spawned tasks for a join, like a sync.WaitGroup
// whose Wait helps execute work instead of blocking the worker.
type Group struct {
	pending atomic.Int64
	panics  atomic.Pointer[taskPanic]
	// waiter is the single worker (if any) parked inside Wait on this
	// group: the Done that drives pending to zero wakes it directly, so a
	// join whose last task completes elsewhere costs one CAS + one notify
	// instead of the old Gosched/sleep polling ladder. One slot suffices —
	// every loop strategy has exactly one joining worker; a second
	// concurrent waiter falls back to yielding (see Worker.Wait).
	waiter atomic.Pointer[Worker]
	// cancel, when bound, is tripped by the first panic captured into the
	// group, so the loop the group joins halts its surviving workers
	// instead of letting them grind to the Wait that re-raises the panic.
	cancel *Canceller
}

// BindCancel attaches a cancellation token to the group: the first panic
// captured into the group cancels the token (with ErrPanicked as cause).
// Must be called before any task bound to the group is spawned — the
// field is plain, published to workers by the spawn that hands them the
// group.
func (g *Group) BindCancel(c *Canceller) { g.cancel = c }

// taskPanic carries a panic from the worker that caught it to the task
// that joins on the group.
type taskPanic struct {
	value any
	stack []byte
}

// Add records n tasks that must complete before Wait returns. As with
// sync.WaitGroup, all Adds for a wave of spawns must happen before the
// corresponding Wait begins.
func (g *Group) Add(n int) { g.pending.Add(int64(n)) }

// Done marks one task complete. The runtime calls this automatically for
// tasks spawned with Worker.Spawn; call it manually only for work enrolled
// via Add without Spawn. The Done that drives the counter to zero wakes
// the worker parked in Wait, if there is one: the decrement-to-zero and
// the waiter registration in Wait are both sequentially consistent, so
// either Done sees the registered waiter or the waiter's post-announce
// Finished check sees the zero — a lost wakeup would require both reads
// to precede both writes, which no total order allows.
//
//sched:noalloc
func (g *Group) Done() {
	n := g.pending.Add(-1)
	if n < 0 {
		panic("sched: Group counter went negative")
	}
	if n == 0 {
		if w := g.waiter.Load(); w != nil {
			w.wake()
		}
	}
}

// Finished reports whether all enrolled tasks have completed.
func (g *Group) Finished() bool { return g.pending.Load() <= 0 }

// capture records a panic value into the group (first panic wins),
// unwrapping a *TaskPanicError re-raised by a nested Wait so the original
// stack is kept.
func (g *Group) capture(r any) {
	if tpe, ok := r.(*TaskPanicError); ok {
		g.panics.CompareAndSwap(nil, &taskPanic{value: tpe.Value, stack: tpe.Stack})
	} else {
		g.panics.CompareAndSwap(nil, &taskPanic{value: r, stack: debug.Stack()})
	}
	// A panicking body halts the rest of the loop, not just the worker it
	// ran on: trip the bound token so every other participant stops at its
	// next per-chunk poll instead of executing the remaining iterations.
	g.cancel.Cancel(ErrPanicked)
}

// Protect runs fn, capturing any panic into the group so that the Wait
// joining it re-raises the panic on the waiting worker. Runtime components
// that execute user code outside a spawned task — such as the hybrid
// loop's claim-and-execute path, which runs partitions synchronously on
// whichever worker entered via the steal protocol — use Protect so a
// panicking loop body cannot kill a scheduler worker.
func (g *Group) Protect(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			g.capture(r)
		}
	}()
	fn()
}

// HybridLoop is the interface the Pool's steal protocol uses to let idle
// workers enter a live hybrid loop with their own worker ID. It is
// implemented by the hybrid strategy in internal/loop; sched depends only
// on this abstraction.
type HybridLoop interface {
	// TrySteal gives worker w a chance to enter the loop per the
	// DoHybridLoop steal protocol. It returns true if the worker did work
	// (claimed and executed at least one partition).
	TrySteal(w *Worker) bool
	// Live reports whether the loop may still have unclaimed partitions.
	Live() bool
}

// Stats aggregates scheduler counters across workers.
type Stats struct {
	Tasks  int64 // tasks executed
	Steals int64 // successful steals
	// FailedSteals counts unsuccessful steal SWEEPS: one per full
	// round over all P-1 victims that found nothing — not one per
	// victim probed. An idle worker cycling through empty deques
	// increments this once per cycle.
	FailedSteals int64
	LoopEntries  int64 // hybrid-loop entries via the steal protocol
	// RangeSteals counts steal-half operations: a thief CASing off the
	// upper half of a victim's published lazy-split range descriptor.
	// These transfers bypass the deque entirely, so they are NOT included
	// in Steals; each one corresponds to exactly one trace.RangeSplit (or
	// RangeSplitRemote) event when the loop is traced.
	RangeSteals int64
	// RemoteSteals / RemoteRangeSteals are the cross-socket subsets of
	// Steals / RangeSteals under a hierarchical placement: transfers where
	// thief and victim sit on different sockets. Local counts are the
	// differences (Steals−RemoteSteals etc.); with a flat (nil) placement
	// both are always zero.
	RemoteSteals      int64
	RemoteRangeSteals int64
	// Parks counts committed park transitions: a worker actually blocking
	// on its state word after a failed announce-then-sweep, not wakes that
	// land during the announcement. Bumped only on the blocking slow path.
	Parks int64
	// BusyNanos / IdleNanos are the pool-wide sums of the per-worker
	// busy/parked times below. Zero unless SetTimeAccounting(true).
	BusyNanos int64
	IdleNanos int64
	// WorkerBusyNanos[i] is the time worker i spent executing work (bursts
	// of consecutive successful task acquisitions; the clock is read at
	// busy↔idle transitions, not per task, so the counters cost nothing on
	// the per-task hot path). WorkerIdleNanos[i] is the time worker i
	// spent parked. Both all-zero unless SetTimeAccounting(true).
	WorkerBusyNanos []int64
	WorkerIdleNanos []int64
}

// Pool is a work-stealing scheduler with a fixed set of workers.
type Pool struct {
	workers []*Worker
	// placement is the worker→socket map driving hierarchical victim
	// selection; nil is the flat single-socket default. Immutable after
	// construction.
	placement *Placement

	injectMu sync.Mutex
	inject   taskRing // external submissions, consumed by idle workers
	closed   bool     // guarded by injectMu; makes Close/submit mutually exclusive

	nparked    atomic.Int64  // workers announced as parking or parked
	wakeCursor atomic.Uint32 // round-robin start for targeted wakeups
	// demand is the exact count of hungry workers: workers whose last
	// steal sweep covered every victim and found nothing, and which have
	// not yet acquired work or parked. Each worker contributes at most
	// one unit (Worker.hungry); the count retires autonomously as hungry
	// workers find work, so there is no clear operation — and none of the
	// check-then-act races the old pool-wide 0/1 flag had, where a
	// MeetDemand (or a parking worker) could erase a signal raised
	// concurrently by another thief's failed sweep.
	demand    atomic.Int32
	injectedN atomic.Int64 // pending external submissions (for HelpOneInjected)
	timeAcct  atomic.Bool  // busy/idle time accounting enabled
	// quitting is the shutdown edge: set by Close before its wake pass. A
	// worker checks it after winning its park transition (sequentially
	// consistent with Close's store, so a worker that misses the wake pass
	// still observes the flag before blocking) and on every wake.
	//
	//sched:protocol quitflag
	//sched:state running = false
	//sched:state quitting = true
	//sched:trans any -> quitting
	quitting atomic.Bool
	wg       sync.WaitGroup
	// rootCache is a single-slot cache for the per-Run scratch frame: the
	// steady-state submitter (the wake-to-first-task path) recycles one
	// frame with a Swap/CAS pair instead of sync.Pool's pin/unpin round
	// trip. Concurrent Runs overflow to rootCallPool.
	rootCache atomic.Pointer[rootCall]

	loopsMu    sync.Mutex                   // serializes Register/Unregister
	loops      atomic.Pointer[[]*loopEntry] // immutable snapshot, lock-free probes
	nextLoopID atomic.Uint64                // per-pool loop IDs for attribution
}

// loopEntry is one registered loop plus the fairness metadata the steal
// protocol keys on: a pool-unique ID (registration order, the tiebreak),
// a relative weight, and the count of successful steal-protocol entries
// served to the loop so far. Idle workers probe live entries in ascending
// served/weight order, so a freshly registered small loop (served = 0)
// outranks a giant loop that has already absorbed many workers — the
// deficit-weighted round-robin that keeps one loop from starving the rest.
type loopEntry struct {
	l      HybridLoop
	id     uint64
	weight int32
	served atomic.Int64
}

// LoopInfo is a snapshot of one registered loop's fairness state, for
// observability (per-loop attribution in stats endpoints).
type LoopInfo struct {
	ID     uint64 // registration order, unique per pool
	Weight int    // relative service share
	Served int64  // successful steal-protocol entries routed to the loop
	Live   bool   // whether the loop still advertises stealable work
}

// NewPool creates a pool with p workers (p >= 1) and starts them. seed
// makes victim selection deterministic per worker for reproducible tests;
// pass different seeds for statistically independent runs.
func NewPool(p int, seed uint64) *Pool {
	return newPool(p, seed, false, nil)
}

// NewPoolPlaced is the placement-aware constructor: pl maps workers to
// sockets and both steal paths sweep hierarchically (own socket first,
// larger cross-socket range transfers). A nil placement is the flat
// default, identical to NewPool. lockThreads locks each worker goroutine
// to its own OS thread (runtime.LockOSThread), keeping the Go scheduler
// from migrating workers between threads — what matters when the OS pins
// threads to cores, the setup under which the paper's locality results
// apply.
func NewPoolPlaced(p int, seed uint64, lockThreads bool, pl *Placement) *Pool {
	return newPool(p, seed, lockThreads, pl)
}

func newPool(p int, seed uint64, lockThreads bool, pl *Placement) *Pool {
	if p < 1 {
		panic(fmt.Sprintf("sched: NewPool with p = %d", p))
	}
	pool := &Pool{placement: pl}
	master := rng.NewSplitMix64(seed)
	pool.workers = make([]*Worker, p)
	for i := 0; i < p; i++ {
		pool.workers[i] = &Worker{
			id:     i,
			socket: int32(pl.Socket(i)),
			pool:   pool,
			dq:     deque.New(Task(nil), RangeTask(nil), (*Group)(nil)),
			rng:    rng.NewXoshiro256(master.Next()),
			park:   make(chan struct{}, 1),
		}
	}
	// Precompute each worker's hierarchical victim order: own-socket
	// victims first, then every remote worker, both in ascending-ID order
	// excluding the worker itself. The steal sweep rotates through each
	// list from a uniformly drawn start, so excluding self HERE is what
	// makes the first probe unbiased — the old skip-self-in-rotation sweep
	// first-probed the worker right after w.id twice as often as any other
	// victim (both start == w.id and start == w.id+1 landed on it).
	for _, w := range pool.workers {
		for _, v := range pool.workers {
			if v.id == w.id {
				continue
			}
			if v.socket == w.socket {
				w.localVictims = append(w.localVictims, v)
			} else {
				w.remoteVictims = append(w.remoteVictims, v)
			}
		}
	}
	for _, w := range pool.workers {
		pool.wg.Add(1)
		go func(w *Worker) {
			if lockThreads {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			w.mainLoop()
		}(w)
	}
	return pool
}

// P returns the number of workers.
func (p *Pool) P() int { return len(p.workers) }

// Worker returns worker i (for tests and instrumentation).
func (p *Pool) Worker(i int) *Worker { return p.workers[i] }

// Close shuts the pool down. Close and Run are mutually exclusive under
// the injection lock: a Run that wins the race has its root executed
// during the workers' final drain, and a Run that loses panics — it can
// never be stranded with an enqueued-but-never-run root.
func (p *Pool) Close() {
	p.injectMu.Lock()
	if p.closed {
		p.injectMu.Unlock()
		return
	}
	p.closed = true
	p.injectMu.Unlock()
	p.quitting.Store(true)
	// One wake pass suffices: a worker this pass observes active (or mid-
	// announcement) either parks after it — in which case its pre-block
	// quitting check, sequentially consistent with the store above, sees
	// the shutdown — or finds work and re-checks quitting on its next wake.
	for _, w := range p.workers {
		w.wake()
	}
	p.wg.Wait()
}

// SetTimeAccounting enables (or disables) per-worker busy/idle time
// accounting. Off by default: with it off the scheduler reads no clocks
// at all; with it on, the monotonic clock is read once per busy↔idle
// transition — a burst of consecutive tasks costs two reads total, so
// even fine-grained loops see no per-task overhead. Higher layers that
// want the imbalance signal (the adaptive autotuner, Stats consumers)
// turn it on at pool construction.
func (p *Pool) SetTimeAccounting(on bool) { p.timeAcct.Store(on) }

// TimeAccounting reports whether busy/idle time accounting is enabled.
func (p *Pool) TimeAccounting() bool { return p.timeAcct.Load() }

// Stats returns aggregate scheduler counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		WorkerBusyNanos: make([]int64, len(p.workers)),
		WorkerIdleNanos: make([]int64, len(p.workers)),
	}
	for i, w := range p.workers {
		s.Tasks += w.tasks.Load()
		s.Steals += w.steals.Load()
		s.FailedSteals += w.failedSteals.Load()
		s.LoopEntries += w.loopEntries.Load()
		s.RangeSteals += w.rangeSteals.Load()
		s.RemoteSteals += w.remoteSteals.Load()
		s.RemoteRangeSteals += w.remoteRangeSteals.Load()
		s.Parks += w.parks.Load()
		s.WorkerBusyNanos[i] = w.busyNanos.Load()
		s.WorkerIdleNanos[i] = w.idleNanos.Load()
		s.BusyNanos += s.WorkerBusyNanos[i]
		s.IdleNanos += s.WorkerIdleNanos[i]
	}
	return s
}

// ResetStats zeroes all scheduler counters.
func (p *Pool) ResetStats() {
	for _, w := range p.workers {
		w.tasks.Store(0)
		w.steals.Store(0)
		w.failedSteals.Store(0)
		w.loopEntries.Store(0)
		w.rangeSteals.Store(0)
		w.remoteSteals.Store(0)
		w.remoteRangeSteals.Store(0)
		w.parks.Store(0)
		w.busyNanos.Store(0)
		w.idleNanos.Store(0)
	}
}

// WorkerCounters is one worker's scheduling counters, for per-worker
// attribution (the metrics plane's worker-labeled series).
type WorkerCounters struct {
	Worker            int
	Tasks             int64
	Steals            int64
	FailedSteals      int64
	LoopEntries       int64
	RangeSteals       int64
	RemoteSteals      int64
	RemoteRangeSteals int64
	Parks             int64
	BusyNanos         int64
	IdleNanos         int64
}

// PerWorker snapshots every worker's counters. Reads are individually
// atomic, not mutually consistent — monitoring semantics, same as Stats.
func (p *Pool) PerWorker() []WorkerCounters {
	out := make([]WorkerCounters, len(p.workers))
	for i, w := range p.workers {
		out[i] = WorkerCounters{
			Worker:            i,
			Tasks:             w.tasks.Load(),
			Steals:            w.steals.Load(),
			FailedSteals:      w.failedSteals.Load(),
			LoopEntries:       w.loopEntries.Load(),
			RangeSteals:       w.rangeSteals.Load(),
			RemoteSteals:      w.remoteSteals.Load(),
			RemoteRangeSteals: w.remoteRangeSteals.Load(),
			Parks:             w.parks.Load(),
			BusyNanos:         w.busyNanos.Load(),
			IdleNanos:         w.idleNanos.Load(),
		}
	}
	return out
}

// ParkedWorkers returns the number of workers currently announced as
// parking or parked — the idle-capacity gauge.
func (p *Pool) ParkedWorkers() int { return int(p.nparked.Load()) }

// Placement returns the pool's worker→socket placement, or nil for the
// flat default.
func (p *Pool) Placement() *Placement { return p.placement }

// rootCall is the reusable frame of one Pool.Run: the submitted root, the
// completion signal, and the panic carried back to the caller. The task
// closure and the done channel are built once per frame and recycled
// through rootCallPool, so a steady state of external submissions — the
// wake-to-first-task path — allocates nothing per Run.
type rootCall struct {
	root func(w *Worker)
	tp   *taskPanic
	done chan struct{} // capacity 1: the worker's send never blocks
	task Task          // pre-bound closure over this frame
}

var rootCallPool = sync.Pool{New: func() any {
	rc := &rootCall{done: make(chan struct{}, 1)}
	rc.task = func(w *Worker) {
		defer func() {
			if r := recover(); r != nil {
				rc.tp = &taskPanic{value: r, stack: debug.Stack()}
			}
			// The send is the frame's last touch by the worker; the
			// receive in Run orders everything before it, so the caller's
			// reads of rc.tp and its reset-and-recycle are safe.
			rc.done <- struct{}{}
		}()
		rc.root(w)
	}
	return rc
}}

// Run executes root on some worker and blocks until it (and everything it
// waited for) returns. It is the entry point for code outside the pool.
// A panic inside root (including a *TaskPanicError re-raised by a Wait)
// propagates to the Run caller rather than killing a worker. Run on a
// closed pool panics.
func (p *Pool) Run(root func(w *Worker)) {
	rc := p.rootCache.Swap(nil)
	if rc == nil {
		rc = rootCallPool.Get().(*rootCall)
	}
	rc.root = root
	p.submit(rc.task)
	<-rc.done
	tp := rc.tp
	rc.root, rc.tp = nil, nil
	if !p.rootCache.CompareAndSwap(nil, rc) {
		rootCallPool.Put(rc)
	}
	if tp != nil {
		if tpe, ok := tp.value.(*TaskPanicError); ok {
			panic(tpe) // already wrapped by a Wait inside the pool
		}
		panic(&TaskPanicError{Value: tp.value, Stack: tp.stack})
	}
}

// submit places a task on the external injection queue and wakes a worker.
// The closed check happens under the same lock Close takes, so a task is
// enqueued iff it precedes the close — in which case the workers' final
// drain executes it (and a submission that instead wins a direct handoff
// below is guaranteed to run by the reserved worker, even across the
// shutdown edge — see mainLoop's handoff handling).
func (p *Pool) submit(t Task) {
	// Direct-handoff fast path: on an idle pool, reserve a parked worker
	// with the same wParked→wNotified CAS a wake uses, hand it the task
	// through its handoff slot, and deliver the token. The task bypasses
	// the inject queue entirely, and the reserved worker runs it straight
	// off the wake — no injectMu on either side, no deque/steal sweep
	// before the first instruction of the task. This is the dominant term
	// of the wake-to-first-task latency. The CAS makes the reservation
	// exclusive: a concurrent notify that loses the race observes
	// wNotified and treats the wake as already delivered, and the worker
	// cannot retract past wParked without consuming the token (see
	// mainLoop). Skipped when injected tasks are already queued so a
	// burst drains roughly in order.
	if p.injectedN.Load() == 0 && p.nparked.Load() > 0 {
		// Fixed-order scan, not the round-robin cursor: on an idle pool
		// every submission reuses the same (cache-warm) worker, and the
		// shared cursor RMW stays off the latency path. Fairness is a
		// non-issue — a parked worker has nothing to be unfair about.
		for _, w := range p.workers {
			if w.state.Load() == wParked && w.state.CompareAndSwap(wParked, wNotified) {
				// The slot write is ordered before the token send; the
				// worker reads it only after the receive.
				w.handoff = t
				w.park <- struct{}{} // capacity 1, reservation is exclusive: never blocks
				return
			}
		}
	}
	p.injectMu.Lock()
	if p.closed {
		p.injectMu.Unlock()
		panic("sched: Run on closed pool")
	}
	p.inject.push(t)
	p.injectedN.Add(1)
	p.injectMu.Unlock()
	p.notify()
}

// InjectPending reports whether external submissions are queued. One
// uncontended atomic load; loop strategies poll it at chunk boundaries to
// decide whether to detour into HelpOneInjected.
func (p *Pool) InjectPending() bool { return p.injectedN.Load() != 0 }

// maxInjectHelpDepth bounds the recursion of loops helping loops: a
// worker that picks up an injected loop root mid-chunk may, inside that
// loop, pick up another. The bound keeps a flood of submissions from
// growing one worker's stack without limit; submissions beyond it simply
// wait for a worker at lower depth (or a parked one).
const maxInjectHelpDepth = 8

// HelpOneInjected lets a worker that is mid-loop service the external
// submission queue: it pops one injected task (typically a newly
// submitted loop's root) and runs it inline on w, then returns to the
// caller's loop. Loop strategies call it at chunk boundaries so a freshly
// submitted small loop starts within about one chunk even when every
// worker is grinding a giant loop — without it, a new loop's root waits
// until some worker drains its entire partition and returns to runOne,
// which is the cross-loop starvation the multi-tenant serving mode must
// avoid. The caller's own published range descriptor remains stealable
// during the detour, so no work is lost and the interrupted loop keeps
// load balancing underneath the helper.
//
// Returns false when nothing is pending or the worker is already at the
// help-depth bound.
func (p *Pool) HelpOneInjected(w *Worker) bool {
	if w.injectDepth >= maxInjectHelpDepth || p.injectedN.Load() == 0 {
		return false
	}
	t, ok, more := p.takeInjected()
	if !ok {
		return false
	}
	if more {
		p.notify()
	}
	w.injectDepth++
	defer func() { w.injectDepth-- }()
	w.run(t)
	return true
}

// takeInjected removes one externally submitted task, FIFO. more reports
// whether further injected tasks remain (for wake chaining).
func (p *Pool) takeInjected() (t Task, ok, more bool) {
	// Empty-queue fast path: one atomic load instead of a mutex round
	// trip. A submission concurrent with the load is covered by the usual
	// handshake — the producer increments injectedN (under the lock)
	// before its notify, so a sweeper that misses the count here is woken
	// into a sweep ordered after the publication.
	if p.injectedN.Load() == 0 {
		return nil, false, false
	}
	p.injectMu.Lock()
	t, ok = p.inject.pop()
	if ok {
		p.injectedN.Add(-1)
	}
	more = p.inject.len() > 0
	p.injectMu.Unlock()
	return t, ok, more
}

// taskRing is a circular FIFO of injected tasks. Popped slots are nil'ed
// so consumed tasks do not linger in the buffer (the previous
// slice-reslicing queue kept every popped task reachable through the
// shared backing array). It grows by doubling when full; capacity is
// always a power of two.
type taskRing struct {
	buf  []Task
	head int // index of the oldest task
	n    int // number of queued tasks
}

func (r *taskRing) len() int { return r.n }

func (r *taskRing) push(t Task) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
}

func (r *taskRing) pop() (Task, bool) {
	if r.n == 0 {
		return nil, false
	}
	t := r.buf[r.head]
	r.buf[r.head] = nil // release the slot: no retention of popped tasks
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t, true
}

func (r *taskRing) grow() {
	cap := len(r.buf) * 2
	if cap == 0 {
		cap = 16
	}
	buf := make([]Task, cap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// notify wakes ONE parked worker, round-robin, after new work was made
// visible — see the package comment's wake-policy section for why this
// (plus wake chaining) cannot lose a wakeup. A worker already in the
// notified state counts as woken: the pending wake forces a full sweep
// that is ordered after this producer's publication.
//
//sched:noalloc
func (p *Pool) notify() {
	if p.nparked.Load() == 0 {
		return
	}
	ws := p.workers
	n := uint32(len(ws))
	start := p.wakeCursor.Add(1)
	for k := uint32(0); k < n; k++ {
		if ws[(start+k)%n].wake() {
			return
		}
	}
	// No worker was observed parked: every announcer either found work or
	// will announce (and final-sweep) after our publication. Nothing to do.
}

// Notify wakes one parked worker. Runtime components that discover
// surplus work outside the pool's own paths (e.g. the hybrid loop after a
// successful claim with partitions still unclaimed) chain wakeups with it.
func (p *Pool) Notify() { p.notify() }

// WakeAll delivers a wake token to every parked worker. Cancellation uses
// it: tripping a loop's token is not "new work" in the sense the
// round-robin notify distributes, but a pool-wide event every parked
// worker should observe promptly — a woken worker's sweep finds the dying
// loop through the registry and helps drain its remaining claims instead
// of leaving the whole drain to the worker blocked in Wait. Workers that
// find nothing simply re-park; a spurious WakeAll costs one sweep each.
func (p *Pool) WakeAll() {
	if p.nparked.Load() == 0 {
		return
	}
	for _, w := range p.workers {
		w.wake()
	}
}

// Demand reports whether there is evidence of thief demand: a worker is
// parked (idle capacity with nothing to run) or some worker's last steal
// sweep covered every victim without finding work and it is still hungry.
// It costs one or two uncontended atomic loads, cheap enough for a loop
// owner to poll once per executed chunk — the demand signal that drives
// lazy range splitting: with no demand the owner keeps consuming its
// published range in large sequential grains and the loop pays zero
// splitting overhead.
func (p *Pool) Demand() bool {
	return p.nparked.Load() > 0 || p.demand.Load() > 0
}

// MeetDemand responds to a Demand observation by waking one parked worker
// so the surplus the caller is advertising (a published range descriptor
// with more than a chunk left) gets a thief routed to it. Recruitment then
// spreads by the usual wake chaining — a thief that steals half and
// observes the victim still has surplus wakes the next parked worker.
//
// Unlike the old pool-wide demand flag, there is nothing to clear here:
// the demand count is exact per-worker accounting that retires on its own
// when a hungry worker acquires work or parks. The old Load()!=0 →
// Store(0) clear was check-then-act — a hint raised by a concurrent
// failed-steal sweep between the load and the store was silently erased
// before any owner advertised surplus (see TestMeetDemandKeepsConcurrentDemand).
func (p *Pool) MeetDemand() {
	p.notify()
}

// DemandCount returns the number of currently hungry workers (exact
// accounting; see Demand). Exposed for observability and tests.
func (p *Pool) DemandCount() int { return int(p.demand.Load()) }

// notifyWorker wakes one specific worker — required for pinned tasks,
// which only their target worker may execute, so a round-robin wake of
// some other worker would strand them. The same announce-then-sweep
// handshake applies, per worker: if w is not observed parked, its next
// parking announcement is ordered after the task's publication and the
// final sweep finds it.
func (p *Pool) notifyWorker(w *Worker) {
	w.wake()
}

// RegisterLoop enrolls a live hybrid loop in the steal protocol with the
// default weight 1 and wakes one parked worker; further participants are
// recruited by wake chaining as claims observe unclaimed partitions.
func (p *Pool) RegisterLoop(l HybridLoop) {
	p.RegisterLoopWeighted(l, 1)
}

// RegisterLoopWeighted is RegisterLoop with an explicit fairness weight:
// idle workers probe live loops in ascending served/weight order, so a
// loop with weight 2 is entitled to roughly twice the steal-protocol
// entries of a weight-1 loop under contention. Weights below 1 are
// clamped to 1.
func (p *Pool) RegisterLoopWeighted(l HybridLoop, weight int) {
	if weight < 1 {
		weight = 1
	}
	e := &loopEntry{l: l, id: p.nextLoopID.Add(1), weight: int32(weight)}
	p.loopsMu.Lock()
	old := p.loops.Load()
	var ls []*loopEntry
	if old != nil {
		ls = append(ls, *old...)
	}
	ls = append(ls, e)
	p.loops.Store(&ls)
	p.loopsMu.Unlock()
	p.notify()
}

// UnregisterLoop removes a hybrid loop from the steal protocol registry.
// No demand cleanup is needed on the last unregister anymore: the demand
// count is exact per-worker accounting that a hungry worker retires
// itself when it finds work or parks, so it cannot go stale across loops
// the way the old sticky flag could.
func (p *Pool) UnregisterLoop(l HybridLoop) {
	p.loopsMu.Lock()
	defer p.loopsMu.Unlock()
	old := p.loops.Load()
	if old == nil {
		return
	}
	ls := make([]*loopEntry, 0, len(*old))
	for _, e := range *old {
		if e.l != l {
			ls = append(ls, e)
		}
	}
	p.loops.Store(&ls)
}

// loopList returns the current registered-loop snapshot without copying:
// Register/Unregister publish fresh immutable slices, so the per-probe
// copy the old mutex+snapshot scheme made on every idle probe is gone.
func (p *Pool) loopList() []*loopEntry {
	ls := p.loops.Load()
	if ls == nil {
		return nil
	}
	return *ls
}

// LiveLoops snapshots the fairness state of every registered loop, for
// per-loop attribution in stats/trace consumers (the examples/server
// /stats endpoint renders it). Ordered by registration.
func (p *Pool) LiveLoops() []LoopInfo {
	ls := p.loopList()
	out := make([]LoopInfo, len(ls))
	for i, e := range ls {
		out[i] = LoopInfo{
			ID:     e.id,
			Weight: int(e.weight),
			Served: e.served.Load(),
			Live:   e.l.Live(),
		}
	}
	return out
}

// LoopsRegistered returns the number of loops ever registered with this
// pool (the current value of the per-pool loop ID counter).
func (p *Pool) LoopsRegistered() int64 { return int64(p.nextLoopID.Load()) }

// Worker park states: the single word the futex-style park/wake protocol
// runs on. Transitions:
//
//	active  → parking   (owner announces intent, then final-sweeps)
//	parking → parked    (owner CAS: the sweep found nothing, block)
//	parking → notified  (waker CAS: wake landed during the announcement —
//	                     the owner's failed parking→parked CAS consumes it
//	                     with no channel traffic at all)
//	parked  → notified  (waker CAS + one channel send to unblock the owner)
//	*       → active    (owner store on every wake/retract path)
//
// Only the transition out of parked touches the capacity-1 token channel,
// and the notified state admits at most one in-flight send, so the send
// never blocks and no token can go stale. The uncontended wake is one CAS
// plus one buffered-channel send; a wake that observes active or notified
// is a no-op.
const (
	wActive uint32 = iota
	wParking
	wParked
	wNotified
)

// wake delivers a wake to w. It returns true if w was parked or parking —
// the wake was delivered, or one was already pending, and w's next full
// sweep is ordered after the caller's work publication — and false if w
// is active (running; it will announce-then-sweep before ever blocking).
//
//sched:noalloc
func (w *Worker) wake() bool {
	for {
		switch w.state.Load() {
		case wActive:
			return false
		case wNotified:
			return true // pending wake: w is committed to a full re-sweep
		case wParking:
			if w.state.CompareAndSwap(wParking, wNotified) {
				return true // consumed by the owner's failed park CAS
			}
		case wParked:
			if w.state.CompareAndSwap(wParked, wNotified) {
				w.park <- struct{}{} // capacity 1, sole sender: never blocks
				return true
			}
		}
	}
}

// Worker is a surrogate of a processing core (Section II): a goroutine
// with its own deque participating in randomized work stealing.
//
// Workers are allocated individually but land in the same heap size
// class, so the struct is padded to a cache-line multiple (checked by
// schedlint's cacheline analyzer) to keep one worker's hot counters —
// tasks/steals are bumped on every executed task — from sharing a
// boundary line with a neighbor's.
//
//sched:cacheline
type Worker struct {
	id     int
	socket int32 // placement socket housing this worker (0 when flat)
	pool   *Pool
	dq     *deque.Deque
	rng    *rng.Xoshiro256
	// localVictims/remoteVictims are the precomputed hierarchical victim
	// lists: every other worker on this worker's socket, then every worker
	// on a remote socket (ascending IDs, self excluded). Immutable after
	// pool construction. With a flat placement remoteVictims is empty and
	// localVictims holds all P−1 others.
	localVictims  []*Worker
	remoteVictims []*Worker
	park          chan struct{} // capacity-1 unblock channel (parked→notified only)
	// state is the futex-style parking word; the spec below formalizes
	// the narrative protocol at wake, and schedlint's protocol analyzer
	// checks every atomic op on this field against it module-wide.
	//
	//sched:protocol parkword
	//sched:state active = wActive
	//sched:state parking = wParking
	//sched:state parked = wParked
	//sched:state notified = wNotified
	//sched:trans any -> parking
	//sched:trans parking -> parked
	//sched:trans parking -> notified
	//sched:trans parked -> notified
	//sched:trans parked -> active
	//sched:trans any -> active
	state atomic.Uint32 // wActive/wParking/wParked/wNotified (see wake)
	// handoff carries a task delivered by Pool.submit's direct-handoff
	// fast path. Plain field: a producer writes it only between winning
	// the exclusive wParked→wNotified reservation CAS and its token send,
	// and the worker reads it only after receiving that token (or on
	// paths where no reservation can have happened), so the channel
	// orders every cross-goroutine access.
	handoff Task
	// hungry marks a worker whose last steal sweep found nothing and that
	// has not yet acquired work or parked; it mirrors one unit of the
	// pool's demand count. Worker-private: only the owning goroutine reads
	// or writes it (the shared signal is Pool.demand).
	hungry bool
	// injectDepth is the worker's current nesting depth of inline
	// HelpOneInjected detours. Worker-private.
	injectDepth int32

	pinnedMu   sync.Mutex
	pinned     []spawned    // worker-targeted tasks; FIFO, not stealable
	pinnedHead int          // consumed prefix of pinned (slots nil'ed)
	pinnedN    atomic.Int32 // queued pinned tasks; lets runOne skip the lock

	tasks        atomic.Int64
	steals       atomic.Int64
	failedSteals atomic.Int64
	loopEntries  atomic.Int64
	rangeSteals  atomic.Int64
	// remoteSteals/remoteRangeSteals count the cross-socket subsets of
	// steals/rangeSteals (zero with a flat placement); local counts are the
	// differences, so the pair reconciles by construction.
	remoteSteals      atomic.Int64
	remoteRangeSteals atomic.Int64
	parks             atomic.Int64 // committed park transitions (blocking slow path only)
	busyNanos         atomic.Int64 // time in busy bursts (timeAcct only)
	idleNanos         atomic.Int64 // time parked (timeAcct only)

	_ [8]byte // pad to a cache-line multiple (//sched:cacheline)
}

// NoteRangeSteal records one successful steal-half of a published range
// descriptor. Called by the loop strategies (internal/loop), which own
// the steal-half protocol; the counter lives here so Stats aggregates it
// with the other scheduling counters. remote marks a cross-socket
// transfer (thief and victim on different placement sockets).
func (w *Worker) NoteRangeSteal(remote bool) {
	w.rangeSteals.Add(1)
	if remote {
		w.remoteRangeSteals.Add(1)
	}
}

// noteHungry registers this worker's unmet demand after a failed full
// steal sweep. Idempotent per worker: repeated failed sweeps contribute
// one unit until the worker is fed or parks, so the demand count is an
// exact census of hungry workers, never a sticky flag.
func (w *Worker) noteHungry() {
	if !w.hungry {
		w.hungry = true
		w.pool.demand.Add(1)
	}
}

// noteFed retires this worker's demand contribution: called when the
// worker acquires work, and when it parks (from then on its idleness is
// represented by nparked, which Demand() checks first — the park-time
// retirement only ever removes this worker's own unit, so other live
// loops' hungry thieves keep the demand signal raised; the old pool-wide
// flag clear wiped theirs too).
func (w *Worker) noteFed() {
	if w.hungry {
		w.hungry = false
		w.pool.demand.Add(-1)
	}
}

// spawned is the deque/pinned-queue element: the task function plus its
// join group. Panic capture and the group Done happen in runSpawned, so
// enqueuing a task requires no closure allocation. Exactly one of fn/rt
// is set; rt carries its iteration range in lo/hi.
type spawned struct {
	fn     Task
	rt     RangeTask
	g      *Group
	lo, hi int
}

// RangeTask is a task parameterized by an iteration range. SpawnRange
// stores the range inline in the deque slot, so loop lowerings that spawn
// one task per split need no per-spawn closure capturing the bounds —
// the allocation that used to dominate fine-grained loop overhead.
type RangeTask func(w *Worker, lo, hi int)

// packRange packs lo and hi into one non-zero int64 deque word, or
// ok == false if either bound needs more than 32 bits. hi > lo guarantees
// the packed word is non-zero, which is what distinguishes a RangeTask
// element from a plain Task element (packed == 0) in the deque.
func packRange(lo, hi int) (int64, bool) {
	if int(int32(lo)) != lo || int(int32(hi)) != hi {
		return 0, false
	}
	return int64(uint32(lo)) | int64(uint32(hi))<<32, true
}

func unpackRange(ab int64) (lo, hi int) {
	return int(int32(uint32(ab))), int(int32(uint32(ab >> 32)))
}

// decode rebuilds a spawned from the deque's (v, arg, ab) element.
func decode(v, arg any, ab int64) spawned {
	g := arg.(*Group)
	if ab == 0 {
		return spawned{fn: v.(Task), g: g}
	}
	lo, hi := unpackRange(ab)
	return spawned{rt: v.(RangeTask), g: g, lo: lo, hi: hi}
}

// ID returns the worker's ID in [0, P).
func (w *Worker) ID() int { return w.id }

// Pool returns the pool this worker belongs to.
func (w *Worker) Pool() *Pool { return w.pool }

// RNG returns the worker's private random number generator (used by
// strategies that need randomness on the worker's hot path).
func (w *Worker) RNG() *rng.Xoshiro256 { return w.rng }

// Socket returns the placement socket housing this worker (0 when the
// pool has no placement).
func (w *Worker) Socket() int { return int(w.socket) }

// Victims returns the worker's precomputed hierarchical victim lists:
// same-socket workers, then remote-socket workers, both ascending-ID with
// self excluded. The loop strategies use them to sweep published ranges
// in the same socket-local-first order as the deque steal path. Callers
// must not mutate the returned slices.
func (w *Worker) Victims() (local, remote []*Worker) {
	return w.localVictims, w.remoteVictims
}

// Spawn pushes a child task bound to g onto this worker's deque. Spawn
// performs the g.Add(1) itself. If the task panics, the panic is captured
// and re-raised from the Wait call that joins the group (wrapped in a
// TaskPanicError), so a panicking loop body surfaces to the code that
// started the loop instead of killing a scheduler worker.
//
// Spawn does not heap-allocate: the task function and group pointer are
// stored directly in the deque, and the completion/panic bookkeeping runs
// in the executing worker rather than in a per-spawn wrapper closure.
//
//sched:noalloc
func (w *Worker) Spawn(g *Group, t Task) {
	g.Add(1)
	w.dq.PushBottom(t, g, 0)
	w.pool.notify()
}

// SpawnRange is Spawn for a RangeTask over [lo, hi): the bounds travel
// inside the deque slot, so repeated spawns of the same task function over
// different ranges (the shape of every divide-and-conquer loop lowering)
// are allocation-free. Ranges whose bounds exceed 32 bits fall back to a
// heap-allocated wrapper — correct, merely slower, and unreachable for
// any loop this repository runs.
//
//sched:noalloc
func (w *Worker) SpawnRange(g *Group, rt RangeTask, lo, hi int) {
	ab, ok := packRange(lo, hi)
	if !ok {
		// The eager fallback wraps the range in a closure. It is the one
		// deliberate allocation here: reachable only for bounds beyond
		// int32, which no loop in this repository produces.
		//lint:ignore noalloc cold int32-overflow fallback; wrapping closure allocates by design
		w.Spawn(g, func(cw *Worker) { rt(cw, lo, hi) })
		return
	}
	g.Add(1)
	w.dq.PushBottom(rt, g, ab)
	w.pool.notify()
}

// TaskPanicError wraps a panic raised inside a spawned task; Wait
// re-panics with it on the joining worker.
type TaskPanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the stack of the worker goroutine that caught the panic.
	Stack []byte
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("sched: task panicked: %v\ntask stack:\n%s", e.Value, e.Stack)
}

// SpawnOn enqueues a task bound to g that only worker id may execute —
// the pinned-work primitive used to model team-based schedulers (OpenMP
// static/dynamic/guided, FastFlow) where every thread enters the parallel
// region itself and chunks are not stealable.
func (p *Pool) SpawnOn(id int, g *Group, t Task) {
	g.Add(1)
	w := p.workers[id]
	w.pinnedMu.Lock()
	w.pinned = append(w.pinned, spawned{fn: t, g: g})
	w.pinnedN.Add(1)
	w.pinnedMu.Unlock()
	p.notifyWorker(w)
}

// takePinned removes one pinned task, FIFO. Owner only. Consumed slots
// are zeroed so executed tasks are not retained by the queue.
func (w *Worker) takePinned() (spawned, bool) {
	// Lock-free common case: pinned work is rare outside the team-based
	// strategies, and runOne probes here on every task, so an empty queue
	// must cost one atomic load, not a mutex round trip. A producer
	// increments pinnedN before its notifyWorker, so the park/notify
	// handshake covers a count published after this check.
	if w.pinnedN.Load() == 0 {
		return spawned{}, false
	}
	w.pinnedMu.Lock()
	defer w.pinnedMu.Unlock()
	if w.pinnedHead == len(w.pinned) {
		if w.pinnedHead > 0 {
			w.pinned = w.pinned[:0]
			w.pinnedHead = 0
		}
		return spawned{}, false
	}
	s := w.pinned[w.pinnedHead]
	w.pinned[w.pinnedHead] = spawned{}
	w.pinnedHead++
	w.pinnedN.Add(-1)
	return s, true
}

// Wait helps execute work until all tasks enrolled in g have completed.
// If any task in the group panicked, Wait re-panics with a
// *TaskPanicError carrying the first captured panic.
//
// A waiter that finds nothing runnable parks on its own state word, like
// mainLoop — not on the old Gosched/sleep polling ladder. It registers
// itself in the group's waiter slot first, so the Done that finishes the
// group wakes it directly; and it announces through nparked, so ordinary
// notify/WakeAll traffic (new spawns, injected roots, the cancel edge)
// reaches it too — a parked waiter is genuine idle capacity, and any wake
// sends it through a full runOne sweep before it can block again.
//sched:noalloc
func (w *Worker) Wait(g *Group) {
	backoff := 0
	for !g.Finished() {
		if w.runOne() {
			backoff = 0
			continue
		}
		if !g.waiter.CompareAndSwap(nil, w) {
			// Another worker already waits on this group (user code can
			// share a group across Waits): fall back to yielding.
			backoff++
			if backoff < 32 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		// Announce-then-sweep, exactly like mainLoop: after the announce,
		// re-check the join condition and sweep once more. A Done or a
		// work publication that raced the announce is caught here; one
		// that lands after it observes the announce and delivers a wake.
		w.state.Store(wParking)
		w.pool.nparked.Add(1)
		if g.Finished() || w.runOne() {
			g.waiter.CompareAndSwap(w, nil)
			w.unpark()
			continue
		}
		if w.state.CompareAndSwap(wParking, wParked) {
			w.parks.Add(1)
			<-w.park
		}
		w.state.Store(wActive)
		w.pool.nparked.Add(-1)
		g.waiter.CompareAndSwap(w, nil)
		// A parked waiter is indistinguishable from a parked idle worker,
		// so a direct handoff (Pool.submit) may have reserved us: run the
		// delivered root inline — exactly what the sweep above does when
		// it picks an injected root out of the queue — then re-check the
		// join condition.
		if t := w.handoff; t != nil {
			w.handoff = nil
			w.run(t)
		}
	}
	// A worker can leave a join hungry (its final sweeps found nothing
	// because the group finished under it); it is about to resume the
	// task that called Wait, so its demand unit would be stale — retire
	// it here rather than waiting for the next runOne success or park.
	w.noteFed()
	if tp := g.panics.Load(); tp != nil {
		//lint:ignore noalloc cold unwind path: the re-raised panic value must escape
		panic(&TaskPanicError{Value: tp.value, Stack: tp.stack})
	}
}

// run executes a group-less task (external submission) with accounting.
func (w *Worker) run(t Task) {
	w.tasks.Add(1)
	t(w)
}

// runSpawned executes one spawned task: accounting, panic capture into
// the group, and the group Done — the bookkeeping the spawn path used to
// pay two heap-allocated closures for, now performed inline by the
// executing worker.
func (w *Worker) runSpawned(s spawned) {
	w.tasks.Add(1)
	defer func() {
		if r := recover(); r != nil {
			s.g.capture(r)
		}
		s.g.Done()
	}()
	if s.rt != nil {
		s.rt(w, s.lo, s.hi)
		return
	}
	s.fn(w)
}

// runOne executes one unit of work if any can be found: own deque first,
// then the hybrid-loop steal protocol, then a random steal, then the
// injection queue. Returns false if nothing was found. A success feeds
// the worker — its demand contribution (if any) is retired.
func (w *Worker) runOne() bool {
	ok := w.findAndRunOne()
	if ok {
		w.noteFed()
	}
	return ok
}

func (w *Worker) findAndRunOne() bool {
	if s, ok := w.takePinned(); ok {
		w.runSpawned(s)
		return true
	}
	if v, arg, ab, ok := w.dq.PopBottom(); ok {
		w.runSpawned(decode(v, arg, ab))
		return true
	}
	if w.tryLoopProtocol() {
		return true
	}
	// External submissions come before the randomized steal sweep: a
	// freshly woken worker on an otherwise idle pool takes the injected
	// root directly instead of first grinding a full failed sweep over
	// P−1 empty deques — the dominant term of the wake-to-first-task
	// latency. Registered loop work still outranks it (above), so a
	// worker helping a live loop is not diverted.
	if t, ok, more := w.pool.takeInjected(); ok {
		if more {
			// Chain: more external submissions are queued behind this one.
			w.pool.notify()
		}
		w.run(t)
		return true
	}
	if s, ok := w.trySteal(); ok {
		w.runSpawned(s)
		return true
	}
	return false
}

// tryLoopProtocol probes registered hybrid loops per the DoHybridLoop
// steal protocol; returns true if the worker executed loop work. The
// loop itself chains wakeups on successful claims (see Pool.Notify), so
// probing stays wake-silent for workers whose designated partition is
// already claimed.
//
// With more than one live loop registered, probes follow deficit-weighted
// order: the live loop with the smallest served/weight ratio is tried
// first (ties broken by registration order), then the next-smallest, and
// so on. A giant loop that has already absorbed many steal-protocol
// entries therefore cannot monopolize idle workers: a freshly registered
// small or high-weight loop wins the next probe.
func (w *Worker) tryLoopProtocol() bool {
	entries := w.pool.loopList()
	n := len(entries)
	switch {
	case n == 0:
		return false
	case n == 1:
		e := entries[0]
		if e.l.Live() && e.l.TrySteal(w) {
			e.served.Add(1)
			w.loopEntries.Add(1)
			return true
		}
		return false
	case n <= 64:
		var tried uint64
		for {
			i := nextLoopIndex(entries, tried)
			if i < 0 {
				return false
			}
			tried |= 1 << uint(i)
			e := entries[i]
			if e.l.TrySteal(w) {
				e.served.Add(1)
				w.loopEntries.Add(1)
				return true
			}
		}
	default:
		// Degenerate registry sizes (admission control keeps real servers
		// far below this): linear order, still correct, no fairness sort.
		for _, e := range entries {
			if e.l.Live() && e.l.TrySteal(w) {
				e.served.Add(1)
				w.loopEntries.Add(1)
				return true
			}
		}
		return false
	}
}

// nextLoopIndex picks the untried live loop with the smallest
// served/weight ratio (deficit-weighted fairness), or -1 if none remain.
// The comparison a.served/a.weight < b.served/b.weight is evaluated by
// cross-multiplication to stay in integers.
func nextLoopIndex(entries []*loopEntry, tried uint64) int {
	best := -1
	var bestServed, bestWeight int64
	for i, e := range entries {
		if tried&(1<<uint(i)) != 0 || !e.l.Live() {
			continue
		}
		s, wt := e.served.Load(), int64(e.weight)
		if best < 0 || s*bestWeight < bestServed*wt {
			best, bestServed, bestWeight = i, s, wt
		}
	}
	return best
}

// trySteal makes one randomized steal attempt against each other worker,
// sweeping hierarchically: own-socket victims first (a local steal's lines
// come from a shared L3, ~41 cycles per hit), then remote sockets (~515
// cycles, Figure 5). Each tier rotates from a uniformly drawn start over
// its victim list — the lists exclude self by construction, so every
// victim is first-probed with equal probability (the old skip-self
// rotation first-probed worker w.id+1 twice as often). A successful thief
// whose steal snapshot saw further queued work behind the stolen element
// wakes the next parked worker before executing (wake chaining).
func (w *Worker) trySteal() (spawned, bool) {
	if s, ok := w.sweepSteal(w.localVictims, false); ok {
		return s, true
	}
	if s, ok := w.sweepSteal(w.remoteVictims, true); ok {
		return s, true
	}
	w.failedSteals.Add(1)
	// Register the worker's unmet demand (once — repeat failed sweeps by
	// an already-hungry worker touch no shared cacheline): loop owners
	// poll the count and respond by advertising their surplus range. Only
	// worth the shared-line RMW pair (raise here, retire at feed/park)
	// when a registered loop exists to consume the signal — the only
	// Demand() pollers are lazy-range owners, which register for their
	// loop's lifetime. A sweep that races a registration and skips the
	// raise is covered within one poll window: the worker parks almost
	// immediately and nparked, which Demand() checks first, takes over.
	if !w.hungry && len(w.pool.loopList()) > 0 {
		w.noteHungry()
	}
	return spawned{}, false
}

// sweepSteal probes each victim once in a rotation from a uniformly drawn
// start, returning the first stolen task. remote marks the sweep's tier
// for the distance counters. Wake chaining uses the steal's own snapshot
// (Deque.Steal's more result), not a post-steal Empty() probe: the probe
// could race the victim draining its remainder and read a stale bottom,
// notifying a worker into a guaranteed-failed sweep (and, with live loops
// registered, a phantom demand unit).
func (w *Worker) sweepSteal(victims []*Worker, remote bool) (spawned, bool) {
	n := len(victims)
	if n == 0 {
		return spawned{}, false
	}
	start := 0
	if n > 1 {
		start = w.rng.Intn(n)
	}
	for k := 0; k < n; k++ {
		vd := victims[(start+k)%n].dq
		if v, arg, ab, ok, more := vd.Steal(); ok {
			w.steals.Add(1)
			if remote {
				w.remoteSteals.Add(1)
			}
			if more {
				w.pool.notify()
			}
			return decode(v, arg, ab), true
		}
	}
	return spawned{}, false
}

// mainLoop is the top-level scheduling loop: run work while it exists,
// park when the system is quiescent, exit on pool close. With time
// accounting on, the clock is read only at burst boundaries: once when a
// busy burst begins, once when the worker gives up and parks — never per
// task.
//sched:noalloc
func (w *Worker) mainLoop() {
	defer w.pool.wg.Done()
	for {
		acct := w.pool.timeAcct.Load()
		var burstStart time.Time
		if acct {
			burstStart = time.Now()
		}
		worked := false
		// A direct handoff (Pool.submit) rides the wake token: run it
		// before any sweeping — it IS the work the wake announced. The
		// worker was parked an instant before, so instead of the usual
		// unannounced sweep it goes straight to the announce-then-sweep
		// exit protocol below: one failed sweep on the idle round trip
		// instead of two, at the cost of an unpark retraction in the rare
		// case the handed-off root left surviving work behind.
		skipFirst := false
		if t := w.handoff; t != nil {
			w.handoff = nil
			w.run(t)
			worked = true
			skipFirst = true
		}
		for {
			if skipFirst {
				skipFirst = false
			} else if w.runOne() {
				worked = true
				continue
			}
			// Announce intent to park, then sweep once more: any task made
			// visible before the announce is found by this sweep, and any
			// task published after it observes the announce and delivers
			// (or credits) a wake.
			w.state.Store(wParking)
			w.pool.nparked.Add(1)
			if w.runOne() {
				w.unpark()
				worked = true
				continue
			}
			break
		}
		if acct && worked {
			w.busyNanos.Add(time.Since(burstStart).Nanoseconds())
		}
		// Going idle: release whatever consumed deque slots still pin.
		// Pops and steals skip slot clearing on the hot path, so this is
		// where the memory-hygiene debt is settled.
		w.dq.Clean()
		// A parking worker retires its OWN failed-sweep demand unit: from
		// here its idleness is represented by nparked (which Demand()
		// checks first, and which was incremented before this point — so
		// no observer window sees neither signal). Other workers' hungry
		// units are untouched: with several live loops, thieves still
		// actively sweeping on behalf of other loops keep the demand
		// signal raised — the old pool-wide flag clear erased theirs too.
		w.noteFed()
		var idleStart time.Time
		if acct {
			idleStart = time.Now()
		}
		if w.state.CompareAndSwap(wParking, wParked) {
			// Committed-park census: already on the blocking slow path, so
			// the counter costs nothing on the wake-to-first-task edge.
			w.parks.Add(1)
			// Committed to blocking. The quitting check sits between the
			// CAS and the receive: if Close's wake pass missed us (we were
			// active then), our CAS precedes this load in the seq-cst total
			// order while Close's store precedes its wake-pass read of our
			// state — one of the two must observe the other, so either we
			// see quitting here or the pass saw us parked and sent a token.
			// Skipping the receive is only safe if no producer reserved us
			// in the meantime: the wParked→wActive CAS below is mutually
			// exclusive with the wParked→wNotified reservation every waker
			// and direct handoff performs, so either we retract unreserved
			// (skip) or a token — possibly carrying a handoff task — is in
			// flight and must be consumed.
			if !w.pool.quitting.Load() || !w.state.CompareAndSwap(wParked, wActive) {
				<-w.park
			}
		}
		// Woken (or the wake landed during the announcement and the park
		// CAS consumed it with no channel traffic).
		if acct {
			w.idleNanos.Add(time.Since(idleStart).Nanoseconds())
		}
		w.unpark()
		if w.pool.quitting.Load() {
			// Final drain: a Run that won the submit/Close race enqueued
			// its root (or handed it off directly) before Close tripped
			// quitting; execute everything reachable so no Run caller is
			// left blocked on a task that never runs.
			if t := w.handoff; t != nil {
				w.handoff = nil
				w.run(t)
			}
			for w.runOne() {
			}
			return
		}
	}
}

// unpark retracts a parking announcement: back to active, off the parked
// census. The store overwrites a pending wNotified mark, which is safe —
// every unpark path re-enters a full runOne sweep before the worker can
// block again (or the worker is exiting on the quitting edge).
//
//sched:noalloc
func (w *Worker) unpark() {
	w.state.Store(wActive)
	w.pool.nparked.Add(-1)
}
