// ParseEnvConfig through an injected lookup: one rule per kind of value
// (flags, paths, numbers), applied to every DBTUNE_* switch, without
// touching the process environment.

#include "util/env_config.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace dbtune {
namespace {

using Env = std::map<std::string, std::string>;

EnvConfig Parse(const Env& env) {
  return ParseEnvConfig([&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  });
}

TEST(EnvConfigTest, EmptyEnvironmentLeavesEverySwitchOff) {
  const EnvConfig config = Parse({});
  EXPECT_FALSE(config.metrics);
  EXPECT_FALSE(config.trace);
  EXPECT_EQ(config.trace_path, "");
  EXPECT_FALSE(config.fake_clock);
  EXPECT_EQ(config.session_log_path, "");
  EXPECT_FALSE(config.session_diagnostics);
  EXPECT_EQ(config.metrics_export_path, "");
  EXPECT_EQ(config.metrics_export_interval_s, 10.0);
  EXPECT_EQ(config.store_path, "");
  EXPECT_FALSE(config.store_snapshot_every.has_value());
  EXPECT_EQ(config.num_threads, 0u);
  EXPECT_TRUE(config.warnings.empty());
}

TEST(EnvConfigTest, FlagsAreOffWhenUnsetEmptyOrZero) {
  const std::vector<const char*> flags = {
      "DBTUNE_METRICS", "DBTUNE_TRACE", "DBTUNE_OBS_FAKE_CLOCK",
      "DBTUNE_SESSION_DIAGNOSTICS"};
  auto flag = [](const EnvConfig& config, const std::string& name) {
    if (name == "DBTUNE_METRICS") return config.metrics;
    if (name == "DBTUNE_TRACE") return config.trace;
    if (name == "DBTUNE_OBS_FAKE_CLOCK") return config.fake_clock;
    return config.session_diagnostics;
  };
  struct Case {
    const char* value;  // null: unset
    bool on;
  };
  const std::vector<Case> cases = {{nullptr, false}, {"", false},
                                   {"0", false},     {"1", true},
                                   {"yes", true},    {"false", true}};
  for (const char* name : flags) {
    for (const Case& c : cases) {
      Env env;
      if (c.value != nullptr) env[name] = c.value;
      const EnvConfig config = Parse(env);
      EXPECT_EQ(flag(config, name), c.on)
          << name << "=" << (c.value == nullptr ? "(unset)" : c.value);
      EXPECT_TRUE(config.warnings.empty());
    }
  }
}

TEST(EnvConfigTest, TraceIsAFlagOrAPath) {
  struct Case {
    const char* value;
    bool on;
    std::string path;
  };
  const std::vector<Case> cases = {{"", false, ""},
                                   {"0", false, ""},
                                   {"1", true, ""},
                                   {"trace.json", true, "trace.json"},
                                   {"/tmp/t.json", true, "/tmp/t.json"}};
  for (const Case& c : cases) {
    const EnvConfig config = Parse({{"DBTUNE_TRACE", c.value}});
    EXPECT_EQ(config.trace, c.on) << c.value;
    EXPECT_EQ(config.trace_path, c.path) << c.value;
  }
}

TEST(EnvConfigTest, PathsAreTakenVerbatim) {
  const EnvConfig config = Parse({{"DBTUNE_SESSION_LOG", "s.jsonl"},
                                  {"DBTUNE_METRICS_EXPORT", "m.prom"},
                                  {"DBTUNE_STORE", "0"}});
  EXPECT_EQ(config.session_log_path, "s.jsonl");
  EXPECT_EQ(config.metrics_export_path, "m.prom");
  EXPECT_EQ(config.store_path, "0");  // a path, not a flag
  EXPECT_EQ(Parse({{"DBTUNE_STORE", ""}}).store_path, "");
}

TEST(EnvConfigTest, NumbersMustParseWhole) {
  struct Case {
    const char* value;
    bool valid;
  };
  const std::vector<Case> cases = {{"17", true},     {"0", true},
                                   {"banana", false}, {"4x", false},
                                   {"-1", false},    {" 5", false},
                                   {"1e99999", false}};
  const std::vector<const char*> numbers = {
      "DBTUNE_NUM_THREADS", "DBTUNE_STORE_SNAPSHOT_EVERY",
      "DBTUNE_METRICS_EXPORT_INTERVAL_S"};
  for (const char* name : numbers) {
    for (const Case& c : cases) {
      const EnvConfig config = Parse({{name, c.value}});
      const std::string label = std::string(name) + "=" + c.value;
      if (c.valid) {
        EXPECT_TRUE(config.warnings.empty()) << label;
      } else {
        ASSERT_EQ(config.warnings.size(), 1u) << label;
        EXPECT_NE(config.warnings[0].find(name), std::string::npos) << label;
      }
    }
  }

  EXPECT_EQ(Parse({{"DBTUNE_NUM_THREADS", "17"}}).num_threads, 17u);
  EXPECT_EQ(Parse({{"DBTUNE_NUM_THREADS", "4x"}}).num_threads, 0u);
  EXPECT_EQ(Parse({{"DBTUNE_NUM_THREADS", "-1"}}).num_threads, 0u);
  EXPECT_EQ(Parse({{"DBTUNE_STORE_SNAPSHOT_EVERY", "17"}}).store_snapshot_every,
            17u);
  EXPECT_EQ(Parse({{"DBTUNE_STORE_SNAPSHOT_EVERY", "0"}}).store_snapshot_every,
            0u);  // 0 disables automatic checkpoints
  EXPECT_FALSE(Parse({{"DBTUNE_STORE_SNAPSHOT_EVERY", "banana"}})
                   .store_snapshot_every.has_value());
  EXPECT_EQ(Parse({{"DBTUNE_METRICS_EXPORT_INTERVAL_S", "2.5"}})
                .metrics_export_interval_s,
            2.5);
  EXPECT_EQ(Parse({{"DBTUNE_METRICS_EXPORT_INTERVAL_S", "10x"}})
                .metrics_export_interval_s,
            10.0);
  EXPECT_EQ(Parse({{"DBTUNE_METRICS_EXPORT_INTERVAL_S", "nan"}}).warnings.size(),
            1u);
  // An empty number is unset: the default, and no warning.
  EXPECT_TRUE(Parse({{"DBTUNE_NUM_THREADS", ""}}).warnings.empty());
}

TEST(EnvConfigTest, EachInvalidNumberWarnsOnce) {
  const EnvConfig config =
      Parse({{"DBTUNE_NUM_THREADS", "4x"},
             {"DBTUNE_STORE_SNAPSHOT_EVERY", "-1"},
             {"DBTUNE_METRICS_EXPORT_INTERVAL_S", "banana"},
             {"DBTUNE_METRICS", "1"}});
  EXPECT_EQ(config.warnings.size(), 3u);
  EXPECT_TRUE(config.metrics);
}

}  // namespace
}  // namespace dbtune
