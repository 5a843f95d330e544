// Umbrella header: the public API of the cold-start laboratory.
//
// Typical use (see examples/quickstart.cpp):
//
//   coldstart::core::ScenarioConfig config = coldstart::core::PaperScenario();
//   coldstart::core::Experiment experiment(config);
//   auto result = experiment.RunCached(coldstart::core::Experiment::DefaultCacheDir());
//   auto cdfs = coldstart::analysis::ColdStartTimeCdfs(result.store);
#ifndef COLDSTART_CORE_COLDSTART_LAB_H_
#define COLDSTART_CORE_COLDSTART_LAB_H_

#include "analysis/components.h"
#include "analysis/fits.h"
#include "analysis/group_cdfs.h"
#include "analysis/groups.h"
#include "analysis/holiday.h"
#include "analysis/pareto.h"
#include "analysis/peaks.h"
#include "analysis/pool_size.h"
#include "analysis/region_stats.h"
#include "analysis/report.h"
#include "analysis/utility.h"
#include "core/experiment.h"
#include "core/frontier.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "platform/coldstart_model.h"
#include "policy/composite.h"
#include "policy/cross_region.h"
#include "policy/forecast.h"
#include "policy/keepalive.h"
#include "policy/peak_shaving.h"
#include "policy/pool_prediction.h"
#include "policy/prewarm.h"
#include "policy/provisioned.h"
#include "policy/workflow_prewarm.h"
#include "workload/replay_source.h"
#include "workload/workload_source.h"

#endif  // COLDSTART_CORE_COLDSTART_LAB_H_
