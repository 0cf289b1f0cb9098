// Experiment E14 (extension): the dense_bits kernel — fused predicates vs
// the allocate-then-test idiom they replaced.
//
// Every criterion in the audit path asks questions about derived sets:
// Def. 3.1 is "(S∩B) ⊆ A", P[A] is a masked weight sum, P[A∩B] a masked sum
// over an intersection. Before the kernel refactor each question materialized
// the derived WorldSet (heap allocation + full word pass) and then scanned it
// again — and per-world sums went through a type-erased std::function. The
// fused kernels answer in one word scan with zero allocations. This bench
// pins the speedup the refactor claims: >= 2x on intersection_subset_of and
// masked_weight_sum at n >= 16.
//
// Inputs are constructed so the fused predicates cannot early-exit (the
// subset relation holds, and union_is_universe gets a pair whose union is
// Omega, so every word is scanned): the measured gap is the fusion win, not
// an early-out artifact.
//
// A second axis sweeps the ISA dispatch tiers (scalar word loop, and AVX2
// where the host supports it) over the dispatched fused kernels via
// bits::force_isa, pinning the SIMD win per tier; the weight sums are not
// dispatched, so they appear only on the first axis.
//
// `--json` replaces the text report with a machine-readable JSON document
// in the shared bench_json.h schema (one row per (n, kernel) pair, plus one
// per (tier, kernel)); BENCH_kernels.json at the repo root is the
// checked-in baseline the CI perf gate diffs (tools/bench_compare.py).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench_json.h"
#include "probabilistic/distribution.h"
#include "util/rng.h"
#include "worlds/dense_bits.h"
#include "worlds/world_set.h"

using namespace epi;

namespace {

/// Median-free ns/op: run `reps` calls of `fn`, best of 3 batches.
template <typename Fn>
double ns_per_op(int reps, Fn&& fn) {
  double best = 1e30;
  for (int batch = 0; batch < 3; ++batch) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) fn();
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        reps;
    if (ns < best) best = ns;
  }
  return best;
}

struct Row {
  const char* kernel;
  double naive_ns;
  double fused_ns;
};

void print_row(const Row& r) {
  std::printf("  %-26s %12.0f %12.0f %9.2fx\n", r.kernel, r.naive_ns,
              r.fused_ns, r.naive_ns / r.fused_ns);
}

void add_row(bench::JsonReport& report, unsigned n, const Row& r) {
  report.row("kernels")
      .field("n", n)
      .field("kernel", r.kernel)
      .field("naive_ns", r.naive_ns, 0)
      .field("fused_ns", r.fused_ns, 0)
      .field("speedup", r.naive_ns / r.fused_ns);
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  bench::JsonReport report("set_kernels");

  if (!json) {
    std::printf(
        "=== E14 (extension): fused set kernels vs allocate-then-test ===\n");
  }

  for (unsigned n : {16u, 18u, 20u}) {
    Rng rng(0xE14 + n);
    const WorldSet s = WorldSet::random(n, rng);
    const WorldSet b = WorldSet::random(n, rng);
    // a ⊇ s∩b, so the fused subset scan must touch every word (no early
    // exit) and the verdicts agree by construction.
    const WorldSet a = (s & b) | WorldSet::random(n, rng, 0.25);
    const Distribution p = Distribution::random(n, rng);
    // a ∪ cover = Omega: no word lets either union check stop early.
    const WorldSet cover = ~a | WorldSet::random(n, rng);
    const int reps = n >= 20 ? 200 : 2000;

    if (!json) {
      std::printf("\n-- n = %u (|Omega| = %zu, %zu words) --\n", n,
                  s.omega_size(), s.word_count());
      std::printf("  %-26s %12s %12s %9s\n", "kernel", "naive ns", "fused ns",
                  "speedup");
    }

    // (s ∩ b) ⊆ a: naive materializes s & b, then runs subset_of.
    bool sink = false;
    const Row subset{
        "intersection_subset_of",
        ns_per_op(reps,
                  [&] {
                    sink ^= (s & b).subset_of(a);
                    benchmark::DoNotOptimize(sink);
                  }),
        ns_per_op(reps,
                  [&] {
                    sink ^= intersection_subset_of(s, b, a);
                    benchmark::DoNotOptimize(sink);
                  }),
    };
    if (!json) print_row(subset);
    add_row(report, n, subset);

    // P[A]: naive drives the accumulation through a type-erased
    // std::function per world (the pre-kernel for_each idiom); fused is the
    // kernel's word-scan weight sum. Identical doubles either way.
    double acc = 0.0;
    const std::function<void(World)> add = [&](World w) { acc += p.prob(w); };
    const Row weight{
        "masked_weight_sum",
        ns_per_op(reps,
                  [&] {
                    acc = 0.0;
                    a.visit(add);
                    benchmark::DoNotOptimize(acc);
                  }),
        ns_per_op(reps,
                  [&] {
                    double sum = masked_weight_sum(a, p.weights().data());
                    benchmark::DoNotOptimize(sum);
                  }),
    };
    if (!json) print_row(weight);
    add_row(report, n, weight);

    // P[A∩B]: naive materializes a & b and sums through std::function.
    const Row inter_weight{
        "intersection_weight_sum",
        ns_per_op(reps,
                  [&] {
                    acc = 0.0;
                    (a & b).visit(add);
                    benchmark::DoNotOptimize(acc);
                  }),
        ns_per_op(reps,
                  [&] {
                    double sum =
                        intersection_weight_sum(a, b, p.weights().data());
                    benchmark::DoNotOptimize(sum);
                  }),
    };
    if (!json) print_row(inter_weight);
    add_row(report, n, inter_weight);

    // A∪B = Omega: naive allocates the union, then scans it again.
    const Row universe{
        "union_is_universe",
        ns_per_op(reps,
                  [&] {
                    sink ^= (a | cover).is_universe();
                    benchmark::DoNotOptimize(sink);
                  }),
        ns_per_op(reps,
                  [&] {
                    sink ^= union_is_universe(a, cover);
                    benchmark::DoNotOptimize(sink);
                  }),
    };
    if (!json) print_row(universe);
    add_row(report, n, universe);
  }

  // --- ISA dispatch axis: the same fused kernels, per forced tier --------
  {
    const unsigned n = 20;
    Rng rng(0xE14 + n);
    const WorldSet s = WorldSet::random(n, rng);
    const WorldSet b = WorldSet::random(n, rng);
    const WorldSet a = (s & b) | WorldSet::random(n, rng, 0.25);
    const WorldSet cover = ~a | WorldSet::random(n, rng);
    const int reps = 400;

    if (!json) {
      std::printf(
          "\n-- ISA dispatch tiers (n = %u, dispatched fused kernels) --\n",
          n);
      std::printf("  %-10s %-26s %12s\n", "tier", "kernel", "ns/op");
    }
    for (const bits::IsaTier tier :
         {bits::IsaTier::kScalar, bits::IsaTier::kAvx2}) {
      if (!bits::force_isa(tier)) continue;  // host lacks this tier
      const char* tier_name = bits::to_string(tier);
      struct Kernel {
        const char* name;
        double ns;
      };
      bool sink = false;
      const Kernel kernels[] = {
          {"intersection_subset_of", ns_per_op(reps,
                                               [&] {
                                                 sink ^= intersection_subset_of(
                                                     s, b, a);
                                                 benchmark::DoNotOptimize(sink);
                                               })},
          {"union_is_universe", ns_per_op(reps,
                                          [&] {
                                            sink ^= union_is_universe(a, cover);
                                            benchmark::DoNotOptimize(sink);
                                          })},
      };
      for (const Kernel& k : kernels) {
        if (!json) {
          std::printf("  %-10s %-26s %12.1f\n", tier_name, k.name, k.ns);
        }
        report.row("isa")
            .field("tier", tier_name)
            .field("n", n)
            .field("kernel", k.name)
            .field("dispatched_ns", k.ns, 1);
      }
    }
    bits::reset_isa();  // back to the CPUID choice
  }

  if (json) {
    report.print();
    return 0;
  }

  std::printf(
      "\nReading: fused kernels answer each derived-set question in one word\n"
      "scan with no heap allocation; the naive column pays an allocation, a\n"
      "second full pass, and (for weight sums) a type-erased call per world.\n"
      "The audit pipeline asks these questions once per (disclosure, user)\n"
      "pair, so the gap compounds across a workload.\n");
  return 0;
}
