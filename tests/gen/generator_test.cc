// Tests for the random system generator (§6.1) and the task-set utilities.
#include "gen/generator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gen/taskset.h"

namespace tsf::gen {
namespace {

using common::Duration;

GeneratorParams paper_params(double density, double sd) {
  GeneratorParams p;
  p.task_density = density;
  p.average_cost_tu = 3.0;
  p.std_deviation_tu = sd;
  p.nb_generation = 10;
  p.seed = 1983;
  return p;
}

TEST(Generator, DeterministicForFixedSeed) {
  RandomSystemGenerator g1(paper_params(2, 2));
  RandomSystemGenerator g2(paper_params(2, 2));
  const auto a = g1.generate();
  const auto b = g2.generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].aperiodic_jobs.size(), b[i].aperiodic_jobs.size());
    for (std::size_t j = 0; j < a[i].aperiodic_jobs.size(); ++j) {
      EXPECT_EQ(a[i].aperiodic_jobs[j].release, b[i].aperiodic_jobs[j].release);
      EXPECT_EQ(a[i].aperiodic_jobs[j].cost, b[i].aperiodic_jobs[j].cost);
    }
  }
}

TEST(Generator, DifferentSeedsProduceDifferentSystems) {
  auto p1 = paper_params(2, 2);
  auto p2 = paper_params(2, 2);
  p2.seed = 42;
  const auto a = RandomSystemGenerator(p1).generate();
  const auto b = RandomSystemGenerator(p2).generate();
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && !any_difference; ++i) {
    any_difference = a[i].aperiodic_jobs.size() != b[i].aperiodic_jobs.size();
  }
  EXPECT_TRUE(any_difference);
}

TEST(Generator, SystemCountMatchesNbGeneration) {
  auto p = paper_params(1, 0);
  p.nb_generation = 7;
  EXPECT_EQ(RandomSystemGenerator(p).generate().size(), 7u);
}

TEST(Generator, PrefixStability) {
  // System i must be identical whether 3 or 10 systems are generated: each
  // system draws from its own split stream.
  auto p3 = paper_params(2, 0);
  p3.nb_generation = 3;
  auto p10 = paper_params(2, 0);
  p10.nb_generation = 10;
  const auto a = RandomSystemGenerator(p3).generate();
  const auto b = RandomSystemGenerator(p10).generate();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(a[i].aperiodic_jobs.size(), b[i].aperiodic_jobs.size());
    for (std::size_t j = 0; j < a[i].aperiodic_jobs.size(); ++j) {
      EXPECT_EQ(a[i].aperiodic_jobs[j].cost, b[i].aperiodic_jobs[j].cost);
    }
  }
}

TEST(Generator, DensityControlsArrivalCount) {
  double mean1 = 0, mean3 = 0;
  for (const auto& s : RandomSystemGenerator(paper_params(1, 0)).generate()) {
    mean1 += static_cast<double>(s.aperiodic_jobs.size());
  }
  for (const auto& s : RandomSystemGenerator(paper_params(3, 0)).generate()) {
    mean3 += static_cast<double>(s.aperiodic_jobs.size());
  }
  mean1 /= 10;  // expected ~10 (1 per period, 10 periods)
  mean3 /= 10;  // expected ~30
  EXPECT_NEAR(mean1, 10.0, 4.0);
  EXPECT_NEAR(mean3, 30.0, 8.0);
  EXPECT_GT(mean3, mean1 * 2);
}

TEST(Generator, CostFloorReproducedFromPaper) {
  auto p = paper_params(3, 2);
  p.average_cost_tu = 0.2;  // most draws fall below the floor
  const auto systems = RandomSystemGenerator(p).generate();
  bool saw_floor = false;
  for (const auto& s : systems) {
    for (const auto& j : s.aperiodic_jobs) {
      EXPECT_GE(j.cost, Duration::ticks(100));
      saw_floor |= (j.cost == Duration::ticks(100));
    }
  }
  EXPECT_TRUE(saw_floor);
}

TEST(Generator, CostFloorBiasesAverageUpward) {
  // §6.2.1: "So the average cost has no longer the correct value."
  auto p = paper_params(3, 2);
  p.average_cost_tu = 0.3;
  double mean = 0;
  std::size_t n = 0;
  for (const auto& s : RandomSystemGenerator(p).generate()) {
    for (const auto& j : s.aperiodic_jobs) {
      mean += j.cost.to_tu();
      ++n;
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_GT(mean / static_cast<double>(n), 0.3);
}

TEST(Generator, ZeroStdDeviationGivesConstantCosts) {
  for (const auto& s : RandomSystemGenerator(paper_params(2, 0)).generate()) {
    for (const auto& j : s.aperiodic_jobs) {
      EXPECT_EQ(j.cost, Duration::time_units(3));
    }
  }
}

TEST(Generator, ReleasesSortedWithinHorizon) {
  for (const auto& s : RandomSystemGenerator(paper_params(3, 2)).generate()) {
    for (std::size_t j = 1; j < s.aperiodic_jobs.size(); ++j) {
      EXPECT_LE(s.aperiodic_jobs[j - 1].release, s.aperiodic_jobs[j].release);
    }
    for (const auto& j : s.aperiodic_jobs) {
      EXPECT_GE(j.release, common::TimePoint::origin());
      EXPECT_LT(j.release, s.horizon);
    }
    EXPECT_EQ(s.horizon - common::TimePoint::origin(),
              Duration::time_units(60));
  }
}

TEST(Generator, UniqueJobNamesPerSystem) {
  for (const auto& s : RandomSystemGenerator(paper_params(3, 2)).generate()) {
    std::set<std::string> names;
    for (const auto& j : s.aperiodic_jobs) {
      EXPECT_TRUE(names.insert(j.name).second) << j.name;
    }
  }
}

TEST(Generator, ServerSpecPropagated) {
  auto p = paper_params(1, 0);
  p.policy = model::ServerPolicy::kDeferrable;
  p.queue = model::QueueDiscipline::kListOfLists;
  const auto s = RandomSystemGenerator(p).generate().front();
  EXPECT_EQ(s.server.policy, model::ServerPolicy::kDeferrable);
  EXPECT_EQ(s.server.queue, model::QueueDiscipline::kListOfLists);
  EXPECT_EQ(s.server.capacity, Duration::time_units(4));
  EXPECT_EQ(s.server.period, Duration::time_units(6));
}

TEST(UUniFast, SumsToTarget) {
  common::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto u = uunifast(5, 0.8, rng);
    double sum = 0;
    for (double x : u) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 0.8 + 1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 0.8, 1e-9);
  }
}

TEST(UUniFast, SingleTaskGetsEverything) {
  common::Rng rng(5);
  const auto u = uunifast(1, 0.5, rng);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u[0], 0.5);
}

TEST(TaskSet, UtilisationNearTargetAndRmPriorities) {
  common::Rng rng(9);
  TaskSetParams p;
  p.count = 5;
  p.total_utilization = 0.6;
  const auto tasks = make_task_set(p, rng);
  ASSERT_EQ(tasks.size(), 5u);
  double u = 0;
  for (const auto& t : tasks) u += t.cost.to_tu() / t.period.to_tu();
  EXPECT_NEAR(u, 0.6, 0.1);  // rounding to ticks perturbs slightly
  // Rate-monotonic: shorter period implies higher (or equal) priority.
  for (const auto& a : tasks) {
    for (const auto& b : tasks) {
      if (a.period < b.period) {
        EXPECT_GT(a.priority, b.priority);
      }
    }
  }
}

TEST(MpGenerator, HitsPerCoreUtilizationTarget) {
  MpGeneratorParams params;
  params.cores = 4;
  params.tasks_per_core = 5;
  params.per_core_utilization = 0.45;
  const auto spec = generate_mp_system(params);
  EXPECT_EQ(spec.cores, 4);
  EXPECT_EQ(spec.periodic_tasks.size(), 20u);
  // Total periodic load is cores x target (tick rounding perturbs slightly).
  EXPECT_NEAR(spec.periodic_utilization(), 4 * 0.45, 0.15);
  // Globally unique names and rate-monotonic priorities.
  for (const auto& a : spec.periodic_tasks) {
    for (const auto& b : spec.periodic_tasks) {
      if (&a == &b) continue;
      EXPECT_NE(a.name, b.name);
      if (a.period < b.period) {
        EXPECT_GT(a.priority, b.priority);
      }
    }
    EXPECT_LT(a.priority, spec.server.priority);
  }
}

TEST(MpGenerator, DeterministicInSeedAndScalesAperiodicLoad) {
  MpGeneratorParams params;
  params.cores = 2;
  params.task_density = 3.0;
  params.horizon_periods = 20;
  const auto a = generate_mp_system(params);
  const auto b = generate_mp_system(params);
  ASSERT_EQ(a.aperiodic_jobs.size(), b.aperiodic_jobs.size());
  for (std::size_t i = 0; i < a.aperiodic_jobs.size(); ++i) {
    EXPECT_EQ(a.aperiodic_jobs[i].release, b.aperiodic_jobs[i].release);
    EXPECT_EQ(a.aperiodic_jobs[i].cost, b.aperiodic_jobs[i].cost);
  }
  // Density is per core: 2 cores x 3 events x 20 periods = 120 expected.
  EXPECT_NEAR(static_cast<double>(a.aperiodic_jobs.size()), 120.0, 40.0);
}

}  // namespace
}  // namespace tsf::gen
