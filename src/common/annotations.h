// Real-time-safety annotations — the static half of the repo's contracts.
//
// Every guarantee the runtime checkers enforce (the alloc interposer's
// zero-alloc window, TSan on the barrier hand-off, the forbidden-behavior
// checker, the fingerprint determinism suites) has a static counterpart
// here: a marker a maintainer puts on a function to state the contract, and
// a rule `tools/tsf_lint` enforces over the whole tree before anything
// runs. Under clang the markers also expand to [[clang::annotate]] so the
// contracts survive into the AST for IDE tooling; under every other
// compiler they compile away entirely — the tokens themselves are what the
// lint recognizes, so the checks do not depend on the compiler.
//
// The markers (see the static-rules table in FORBIDDEN_BEHAVIOR_CATALOG.md
// for the rule <-> runtime-checker mapping):
//
//   TSF_REALTIME             Bounded, non-blocking handler-path code: no
//                            heap traffic, no locks/sleeps, no IO, no
//                            throw — in the function or its direct callees
//                            (rules rt-alloc / rt-block / rt-io / rt-throw).
//   TSF_NO_ALLOC             The allocation subset of TSF_REALTIME, for
//                            code that may synchronize or report errors but
//                            must never touch the heap (rule rt-alloc).
//   TSF_DETERMINISM_CRITICAL Code whose output feeds fingerprints, trace
//                            streams or JSON documents: no wall clocks, no
//                            ambient randomness, no iteration over
//                            unordered containers (rules det-random /
//                            det-clock / det-unordered-iter).
//   TSF_BARRIER_ONLY         The epoch-boundary step of mp/multi_vm: runs
//                            on one thread while every core is paused (under
//                            `backend = threads`, while every worker is
//                            parked at the barrier). Must never be reachable
//                            from TSF_WORKER_PHASE code (rule phase-order).
//   TSF_WORKER_PHASE         Code running inside a core's epoch —
//                            concurrently with the other cores under
//                            `backend = threads`. The lint
//                            walks the call graph from every worker-phase
//                            root; reaching a barrier-only function is a
//                            phase-order violation unless the edge is in
//                            the reviewed allowlist (tools/tsf_lint.allow).
//
// Deliberate exceptions are written next to the offending line as
//
//   // TSF_LINT_ALLOW[rule-name]: justification
//
// (same line or the line above). The justification is mandatory — an empty
// one is itself a finding — and every suppression is recorded in the lint's
// JSON report, so exceptions stay reviewable instead of silent.
#pragma once

#if defined(__clang__)
#define TSF_ANNOTATE(tag) [[clang::annotate(tag)]]
#else
#define TSF_ANNOTATE(tag)
#endif

#define TSF_REALTIME TSF_ANNOTATE("tsf::realtime")
#define TSF_NO_ALLOC TSF_ANNOTATE("tsf::no_alloc")
#define TSF_DETERMINISM_CRITICAL TSF_ANNOTATE("tsf::determinism_critical")
#define TSF_BARRIER_ONLY TSF_ANNOTATE("tsf::barrier_only")
#define TSF_WORKER_PHASE TSF_ANNOTATE("tsf::worker_phase")
