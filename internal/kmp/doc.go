// Package kmp is a from-scratch Go reimplementation of the slice of LLVM's
// OpenMP runtime (libomp) that the paper's Zig compiler extension calls into.
//
// The paper lowers OpenMP pragmas to the __kmpc_* entry points of libomp:
//
//   - parallel regions   → __kmpc_fork_call          → ForkCall
//   - static loops       → __kmpc_for_static_init/fini → ForStatic / StaticBlock / StaticChunked
//   - dynamic/guided/runtime loops → __kmpc_dispatch_init/next → (*Thread).DispatchInit/DispatchNext
//   - barriers           → __kmpc_barrier            → (*Thread).Barrier
//   - critical           → __kmpc_critical           → Critical
//   - single / master    → __kmpc_single/master      → (*Thread).Single / Master
//   - explicit tasks     → __kmpc_omp_task           → (*Thread).TaskSpawn
//   - tasks with depend  → __kmpc_omp_task_with_deps → (*Thread).SpawnTask
//   - taskwait           → __kmpc_omp_taskwait       → (*Thread).Taskwait
//   - taskyield          → __kmpc_omp_taskyield      → (*Thread).Taskyield
//   - taskgroup          → __kmpc_taskgroup/end      → (*Thread).TaskgroupRun
//   - taskloop           → __kmpc_taskloop           → (*Thread).Taskloop
//
// This package provides those entry points natively: goroutine worker teams
// stand in for the pthread teams of libomp. Teams are "hot" — workers are
// created once and kept between parallel regions, exactly as libomp keeps
// its hot team — and the fork fast path is engineered so that a warm region
// costs zero heap allocations and no global locks (see the next section).
//
// # Hot teams and the fork fast path
//
// Team reuse is two-tiered (hotteam.go). The affinity tier maps the forking
// goroutine's id to the team it released last, in a sharded map, so a
// serving goroutine that opens region after region gets its own team back —
// workers already spawned, barrier already sized, caches already warm. The
// pool tier is a sharded free list that catches teams whose owner moved on
// and hands them to whichever root forks next, scanning the home shard
// first. Both tiers are capped (affinityCap, hotPoolCap, scaled by
// GOMAXPROCS); overflow is disposed rather than cached, and TrimTeams
// drains both tiers on demand for processes that have gone quiet.
//
// Between regions each worker goroutine sits in a spin-then-park wait
// (team.go): it spins on the team's generation word — bounded iterations
// under OMP_WAIT_POLICY=passive, a much longer budget under active — and
// then parks on a buffered channel guarded by a parked flag, Dekker-style,
// so the master's wake never blocks and never misses a sleeper. The
// generation word packs region counter and team size into one uint64, so a
// single atomic load tells a worker both "a new region started" and
// "whether it participates"; non-participating workers (the region shrank)
// go straight back to waiting without touching any region state.
//
// Team barriers wait the same way (barrier.go): a bounded spin on the
// barrier's generation word (128 probes under passive, 8192 under active,
// yielding every 8), then a park on the barrier's condition variable. The
// last arrival bumps the generation and, only if some waiter has parked,
// broadcasts — so a parked waiter resumes on the release itself, not on a
// timer tick, and a release nobody sleeps through costs one atomic load.
// The waiter counts itself as a sleeper and re-checks the generation under
// the barrier's mutex, Dekker-ordered against the releaser's bump-then-
// load, so no wake-up is lost. Region cancellation (cancel.go) raises its
// flag and wakes the cancellable barrier's sleepers the same way.
//
// A warm fork therefore performs: one goroutine-id read (an assembly g
// pointer read on amd64/arm64, validated at init against the portable
// stack parse — goid_fast.go), one affinity-map hit, field stores for the
// region closure, one atomic generation publish, and wake sends to however
// many workers actually parked. Nothing allocates: the cancellation latch
// is a generation counter (cancel.go), barriers are sense-reversing atomic
// words with their wake primitive embedded (barrier.go), the serial one-thread path runs from a sync.Pool,
// and the error box is embedded in the team. TestWarmRegionZeroAlloc and
// BenchmarkForkJoin assert the invariant.
//
// Nested parallelism forks real inner teams (when max-active-levels
// allows) through the same pools, with team sizes debited against
// thread-limit-var by a global reservation counter (reserveThreads), so a
// contention group never oversubscribes its configured budget.
//
// # Explicit tasking
//
// Every deferred task lands on the creating thread's Chase–Lev
// work-stealing deque (taskdeque.go): the owner pushes and pops at the
// bottom in LIFO order (keeps recursive working sets cache-hot and bounds
// deque depth), while thieves steal the oldest task from the top in FIFO
// order (one steal takes the largest remaining subtree). All deque accesses
// are atomic, so the structure is lock-free and race-detector-clean; the
// one synchronised point is the CAS on top that decides ownership of a
// task, including the owner-vs-thief race for the last element.
//
// Completion follows two rules (task.go):
//
//   - taskwait waits for the *children* of the current task only — each
//     task carries a counter of its outstanding deferred children.
//   - taskgroup end waits for all *descendants* spawned in the group —
//     a task inherits its creator's group, so transitively created tasks
//     count against it too.
//
// Both waits, and every team barrier, are task scheduling points: a waiting
// thread executes ready tasks (the team's priority queue first, then its
// own deque, then steals round-robin from teammates) instead of spinning,
// so one producer thread plus an idle team drains any task tree. The
// implicit barrier at region end completes all outstanding tasks before
// ForkCall returns. if(false) and final tasks — and every descendant of a
// final task — execute undeferred on the spawning thread's stack; untied
// is accepted but executes tied, the conforming fallback (untied permits
// migration, it does not require it); mergeable is accepted but executes
// unmerged, the symmetric fallback.
//
// # Task dependences
//
// Tasks spawned with depend items (SpawnTask with TaskOpts.Deps) form a
// dataflow DAG resolved at runtime (taskdep.go): each task-generating
// region keeps a hash table from dependence address to last-writer and
// reader-set, a new task registers edges against those predecessors and
// holds an atomic unresolved-predecessor counter, and the task is withheld
// from the deques until the counter drains — predecessor completion walks
// the successor list and enqueues newly ready tasks from whichever thread
// finished last. Ready tasks carrying a priority clause route through a
// team-wide max-heap consulted before any deque. Discarded (cancelled)
// tasks still release their successors, so dependence DAGs compose with
// taskwait, taskgroup, cancellation, and region teardown. taskyield is one
// more task scheduling point: the thread may run a ready task before
// resuming.
//
// Because the evaluation machines for the original paper expose more
// hardware threads than typical CI hosts, teams may be larger than
// runtime.NumCPU(); every synchronisation primitive here is therefore safe
// under oversubscription (spin phases are bounded and fall back to parking).
//
// The schedule-kind constants reuse libomp's numeric values
// (kmp_sch_static_chunked = 33, ...), so traces of lowered programs can be
// compared against clang/flang -fopenmp output directly.
package kmp
