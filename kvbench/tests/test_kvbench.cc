/**
 * @file
 * Tests of the benchmark itself: determinism, the percentile rule,
 * CPU accounting, failure accounting, and metric naming. Workloads run
 * here on small stores; the command-level tests use the real sizes.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

using namespace kvbench;

namespace {

RunConfig
small(const std::string& workload, uint64_t seed = 7, bool trace = false)
{
    RunConfig c;
    c.workload = workload;
    c.seed = seed;
    c.seconds = 0.5;
    c.trace = trace;
    c.keys = 4000;
    c.poolMB = 16;
    c.setupReps = 1;
    return c;
}

std::map<std::string, double>
byName(const Result& r)
{
    std::map<std::string, double> m;
    for (const Metric& x : r.metrics)
        m[x.name] = x.value;
    return m;
}

/** Run the command with `args`; return its exit code and output. */
int
command(std::vector<std::string> args, std::string* output)
{
    args.insert(args.begin(), "kvbench");
    std::vector<char*> argv;
    for (auto& a : args)
        argv.push_back(a.data());
    std::FILE* out = std::tmpfile();
    int rc = runCommand(int(argv.size()), argv.data(), out);
    std::rewind(out);
    output->clear();
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0)
        output->append(buf, n);
    std::fclose(out);
    return rc;
}

std::string
lastLine(const std::string& s)
{
    size_t end = s.find_last_not_of('\n');
    size_t start = s.rfind('\n', end);
    return s.substr(start == std::string::npos ? 0 : start + 1,
                    end - (start == std::string::npos ? 0 : start + 1) +
                        1);
}

/** Names listed under `section` of BENCHMARK.json. */
std::vector<std::string>
declared(const std::string& section)
{
    std::ifstream f(std::string(KVBENCH_ROOT) + "/BENCHMARK.json");
    std::stringstream ss;
    ss << f.rdbuf();
    std::string s = ss.str();
    size_t at = s.find("\"" + section + "\"");
    EXPECT_NE(at, std::string::npos) << section;
    size_t end = s.find(']', at);
    std::string body = s.substr(at, end - at);
    std::vector<std::string> names;
    std::regex re("\"name\"\\s*:\\s*\"([^\"]+)\"");
    for (std::sregex_iterator it(body.begin(), body.end(), re), e;
         it != e; ++it)
        names.push_back((*it)[1]);
    return names;
}

}  // namespace

TEST(Determinism, SameSeedSameOpStream)
{
    Mix mix{0.25, 0.05, 0.10, 0.99};
    OpGen a(mix, 42, 0, 1000), b(mix, 42, 0, 1000), c(mix, 43, 0, 1000);
    Shadow sa(42, 1000), sb(42, 1000);
    bool differs = false;
    for (int i = 0; i < 10000; i++) {
        Op x = a.next(), y = b.next(), z = c.next();
        ASSERT_EQ(int(x.kind), int(y.kind));
        ASSERT_EQ(x.key, y.key);
        Planned px = sa.plan(x), py = sb.plan(y);
        ASSERT_EQ(px.seq, py.seq);
        ASSERT_EQ(std::string(px.val, kValLen),
                  std::string(py.val, kValLen));
        differs |= x.key != z.key;
    }
    EXPECT_TRUE(differs);
}

TEST(Determinism, SameSeedSameCounts)
{
    for (const char* w : {"kv-write", "kv-read"}) {
        auto a = byName(runWorkload(small(w)));
        auto b = byName(runWorkload(small(w)));
        for (const char* m : {"fences_per_write", "flushes_per_write",
                              "log_bytes_per_write",
                              "nvm_bytes_per_user_byte"}) {
            EXPECT_GT(a[m], 0) << w << " " << m;
            EXPECT_EQ(a[m], b[m]) << w << " " << m;
        }
    }
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 19; i++)
        v.push_back(i);
    EXPECT_THROW(percentile(v, 0.5), std::domain_error);
    v.push_back(20);
    EXPECT_EQ(percentile(v, 0.5), 10);

    std::vector<double> big(999, 1.0);
    EXPECT_THROW(percentile(big, 0.99), std::domain_error);
    big.push_back(2.0);
    EXPECT_EQ(percentile(big, 0.99), 1.0);
}

TEST(CpuAccounting, ClientThatBurnsCpuDoesNotMoveServeCpuPerOp)
{
    RunConfig c = small("kv-serve");
    c.seconds = 1.0;
    double plain = byName(runWorkload(c))["cpu_us_per_op"];
    c.inject = Inject::clientBurn;
    Result burned = runWorkload(c);
    ASSERT_TRUE(burned.correct);
    double withBurn = byName(burned)["cpu_us_per_op"];
    // The burn costs each client 20 us per op, several times the
    // server's own CPU per op: unsubtracted, it would multiply it.
    EXPECT_GT(plain, 0);
    EXPECT_LT(withBurn, plain * 1.5);
    EXPECT_GT(withBurn, plain / 1.5);
}

TEST(FailureAccounting, CorruptedReplyFailsTheCommand)
{
    std::string out;
    int rc = command({"--workload", "kv-serve", "--seed", "3",
                      "--seconds", "1", "--trace", "0", "--inject",
                      "reply"},
                     &out);
    EXPECT_NE(rc, 0);
    std::string last = lastLine(out);
    EXPECT_NE(last.find("\"correct\": false"), std::string::npos) << last;
    EXPECT_EQ(last.find("\"failed\": 0,"), std::string::npos) << last;
    EXPECT_EQ(out.find("failed_op_ratio=0 "), std::string::npos) << out;
}

TEST(FailureAccounting, CorruptedRecoveredValueFailsTheCommand)
{
    std::string out;
    int rc = command({"--workload", "kv-serve", "--seed", "3",
                      "--seconds", "1", "--trace", "0", "--inject",
                      "recovered"},
                     &out);
    EXPECT_NE(rc, 0);
    EXPECT_NE(lastLine(out).find("\"correct\": false"), std::string::npos);
}

TEST(FailureAccounting, CleanRunPasses)
{
    std::string out;
    int rc = command({"--workload", "kv-serve", "--seed", "3",
                      "--seconds", "1", "--trace", "0"},
                     &out);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(lastLine(out).find("\"correct\": true, "), std::string::npos);
}

TEST(Naming, EveryMetricNameIsWellFormedAndDeclared)
{
    std::regex ok("[A-Za-z0-9_.-]+");
    auto e2e = declared("end_to_end");
    auto layers = declared("per_layer");
    ASSERT_FALSE(e2e.empty());
    ASSERT_FALSE(layers.empty());
    for (const auto& w : workloadNames()) {
        for (bool trace : {false, true}) {
            Result r = runWorkload(small(w, 11, trace));
            EXPECT_TRUE(r.correct) << w;
            std::vector<std::string> names;
            for (const Metric& m : r.metrics) {
                EXPECT_TRUE(std::regex_match(m.name, ok)) << m.name;
                names.push_back(m.name);
            }
            EXPECT_EQ(names, trace ? layers : e2e) << w;
        }
    }
}

TEST(Command, RefusesEnvironmentKnobs)
{
    setenv("CNVM_BATCH", "4", 1);
    std::string out;
    int rc = command({"--workload", "kv-write", "--seed", "1",
                      "--seconds", "1", "--trace", "0"},
                     &out);
    unsetenv("CNVM_BATCH");
    EXPECT_EQ(rc, 2);
    EXPECT_TRUE(out.empty());
}
