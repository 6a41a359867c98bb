/**
 * @file
 * The kvbench command line: argument parsing, refusal of environment
 * knobs, one-CPU confinement, run metadata, and the JSON result line.
 */
#include <sched.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.h"

extern char** environ;

namespace kvbench {

namespace {

/** Aggregate and per-CPU tick counters from /proc/stat. */
struct CpuTicks {
    uint64_t total = 0;
    uint64_t steal = 0;
};

CpuTicks
readTicks(const std::string& label)
{
    std::ifstream f("/proc/stat");
    std::string line;
    while (std::getline(f, line)) {
        std::istringstream in(line);
        std::string name;
        in >> name;
        if (name != label)
            continue;
        CpuTicks t;
        // user nice system idle iowait irq softirq steal
        for (int i = 0; i < 8; i++) {
            uint64_t v = 0;
            in >> v;
            t.total += v;
            if (i == 7)
                t.steal = v;
        }
        return t;
    }
    return {};
}

double
stealPct(const CpuTicks& a, const CpuTicks& b)
{
    uint64_t total = b.total - a.total;
    return total ? 100.0 * double(b.steal - a.steal) / double(total) : 0;
}

/**
 * Confine the process to one CPU before any thread starts, so threads
 * inherit it: cross-CPU wakeups on a virtual machine go through the
 * hypervisor and swamp the server's own costs. The last allowed CPU
 * is chosen; it is the one least likely to take device interrupts.
 * @return the CPU, or -1 if the mask could not be set.
 */
int
confineToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return -1;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; c++)
        if (CPU_ISSET(c, &allowed))
            cpu = c;
    if (cpu < 0)
        return -1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "kvbench: %s\n"
                 "usage: kvbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "               [--trace-out PATH] [--git-sha SHA]\n"
                 "               [--inject reply|recovered|client-burn]\n"
                 "workloads:",
                 msg);
    for (const auto& n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int
runCommand(int argc, char** argv, std::FILE* out)
{
    RunConfig cfg;
    std::string gitSha = "unknown";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            cfg.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = end != v.c_str() && *end == '\0';
        } else if (a == "--seconds") {
            cfg.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = end != v.c_str() && *end == '\0' &&
                          cfg.seconds > 0 && cfg.seconds <= 3600;
        } else if (a == "--trace") {
            haveTrace = v == "0" || v == "1";
            cfg.trace = v == "1";
        } else if (a == "--trace-out") {
            cfg.tracePath = v;
        } else if (a == "--git-sha") {
            gitSha = v;
        } else if (a == "--inject") {
            if (v == "reply")
                cfg.inject = Inject::reply;
            else if (v == "recovered")
                cfg.inject = Inject::recovered;
            else if (v == "client-burn")
                cfg.inject = Inject::clientBurn;
            else
                return usage("bad --inject");
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    // The configuration is pinned in the benchmark; an environment
    // knob would silently change what is measured.
    for (char** e = environ; *e != nullptr; e++) {
        if (std::strncmp(*e, "CNVM_", 5) == 0) {
            std::string name(*e, std::strcspn(*e, "="));
            std::fprintf(stderr,
                         "kvbench: refusing to run with %s set; the "
                         "benchmark pins every knob itself\n",
                         name.c_str());
            return 2;
        }
    }

    int cpu = confineToOneCpu();
    std::string cpuLabel = "cpu" + std::to_string(cpu);
    CpuTicks all0 = readTicks("cpu"), own0 = readTicks(cpuLabel);

    Result r;
    try {
        r = runWorkload(cfg);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "kvbench: %s\n", e.what());
        return 1;
    }

    CpuTicks all1 = readTicks("cpu"), own1 = readTicks(cpuLabel);
    std::fprintf(out,
                 "# meta workload=%s seed=%llu seconds=%g trace=%d "
                 "git_sha=%s nproc=%ld cpu=%d steal_pct=%.2f "
                 "steal_pct_own_cpu=%.2f\n",
                 cfg.workload.c_str(), (unsigned long long)cfg.seed,
                 cfg.seconds, cfg.trace ? 1 : 0, gitSha.c_str(),
                 sysconf(_SC_NPROCESSORS_ONLN), cpu,
                 stealPct(all0, all1), stealPct(own0, own1));
    std::fprintf(out, "# diag failed_op_ratio=%.6g",
                 r.attempted ? double(r.failed) / double(r.attempted) : 0);
    for (const auto& [k, v] : r.diag)
        std::fprintf(out, " %s=%s", k.c_str(), v.c_str());
    std::fprintf(out, "\n%s\n", resultJson(r).c_str());
    std::fflush(out);
    return r.correct && r.failed == 0 ? 0 : 1;
}

}  // namespace kvbench
