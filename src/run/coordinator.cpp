#include "src/run/coordinator.h"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "src/common/log.h"

namespace poc {
namespace {

using Clock = std::chrono::steady_clock;

bool fp_less(const JournalRecord& a, const JournalRecord& b) {
  if (a.phase != b.phase) return a.phase < b.phase;
  if (a.index != b.index) return a.index < b.index;
  if (a.fp.hi != b.fp.hi) return a.fp.hi < b.fp.hi;
  return a.fp.lo < b.fp.lo;
}

// -- Supervisor signal bridge -----------------------------------------------
// Installed only while a forward_signals supervision loop runs.  The
// handler just records; the loop (not the handler) forwards, so the
// handler stays async-signal-safe.
std::atomic<int> g_sup_signal{0};
std::atomic<int> g_sup_count{0};

void supervisor_signal_handler(int signo) {
  g_sup_signal.store(signo, std::memory_order_relaxed);
  g_sup_count.fetch_add(1, std::memory_order_relaxed);
}

/// RAII install/restore of the supervisor's SIGINT/SIGTERM handlers.
class ScopedSupervisorSignals {
 public:
  ScopedSupervisorSignals() {
    g_sup_signal.store(0, std::memory_order_relaxed);
    g_sup_count.store(0, std::memory_order_relaxed);
    struct sigaction sa = {};
    sa.sa_handler = supervisor_signal_handler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, &prev_int_);
    ::sigaction(SIGTERM, &sa, &prev_term_);
  }
  ~ScopedSupervisorSignals() {
    ::sigaction(SIGINT, &prev_int_, nullptr);
    ::sigaction(SIGTERM, &prev_term_, nullptr);
  }

 private:
  struct sigaction prev_int_ = {};
  struct sigaction prev_term_ = {};
};

}  // namespace

const char* worker_intervention_name(WorkerIntervention::Kind kind) {
  switch (kind) {
    case WorkerIntervention::Kind::kStallKilled:
      return "stall_killed";
    case WorkerIntervention::Kind::kRespawned:
      return "respawned";
    case WorkerIntervention::Kind::kRetriesExhausted:
      return "retries_exhausted";
    case WorkerIntervention::Kind::kSignalForwarded:
      return "signal_forwarded";
    case WorkerIntervention::Kind::kSignalEscalated:
      return "signal_escalated";
  }
  return "invalid";
}

SupervisionResult supervise_tasks(std::vector<SupervisedTask>& tasks,
                                  const SupervisorOptions& options) {
  SupervisionResult result;
  result.exits.resize(tasks.size());
  result.attempts.assign(tasks.size(), 0);

  enum class State : std::uint8_t { kRunning, kBackoff, kDone };
  struct TaskState {
    State state = State::kDone;
    std::uint32_t respawns = 0;      ///< respawns used so far
    std::uint64_t backoff_ms = 0;    ///< next backoff delay
    Clock::time_point respawn_at;
    Clock::time_point last_progress;
    std::uint64_t progress_value = 0;
    bool stall_killed = false;       ///< current attempt was watchdog-killed
  };
  std::vector<TaskState> states(tasks.size());

  const bool watchdog = options.watchdog && options.progress != nullptr;
  // Handlers are installed only when forwarding was asked for — otherwise
  // whatever bridge the host process runs (ScopedGracefulShutdown) keeps
  // receiving its signals untouched.
  std::unique_ptr<ScopedSupervisorSignals> signal_guard;
  if (options.forward_signals) {
    signal_guard = std::make_unique<ScopedSupervisorSignals>();
  }
  int signals_handled = 0;
  bool draining = false;  // a forwarded signal cancels respawns/watchdog

  auto spawn = [&](std::size_t i) {
    TaskState& st = states[i];
    ++result.attempts[i];
    if (!tasks[i].start(result.attempts[i])) {
      result.exits[i] = WorkerExit{tasks[i].worker, -1, false, -1, 0};
      st.state = State::kDone;
      return;
    }
    st.state = State::kRunning;
    st.stall_killed = false;
    st.last_progress = Clock::now();  // spawn counts as progress
    st.progress_value =
        watchdog ? options.progress(tasks[i].worker) : 0;
  };

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    states[i].backoff_ms = options.backoff_initial_ms;
    spawn(i);
  }

  auto finished = [&]() {
    for (const TaskState& st : states) {
      if (st.state != State::kDone) return false;
    }
    return true;
  };

  while (!finished()) {
    // Signal forwarding: first observed SIGINT/SIGTERM is delivered to
    // every live attempt and cancels pending respawns; a second signal
    // escalates to SIGKILL.
    // One signal consumed per tick, so back-to-back signals escalate in
    // steps (forward, then SIGKILL) instead of collapsing into one.
    if (options.forward_signals &&
        g_sup_count.load(std::memory_order_relaxed) > signals_handled) {
      ++signals_handled;
      const int signo = g_sup_signal.load(std::memory_order_relaxed);
      const bool escalate = draining;
      draining = true;
      if (result.forwarded_signal == 0) result.forwarded_signal = signo;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        TaskState& st = states[i];
        if (st.state == State::kBackoff) {
          // Cancel the pending respawn: the last failed exit stands.
          st.state = State::kDone;
          continue;
        }
        if (st.state != State::kRunning) continue;
        if (escalate || tasks[i].deliver == nullptr) {
          tasks[i].kill();
          result.interventions.push_back(
              {WorkerIntervention::Kind::kSignalEscalated, tasks[i].worker,
               result.attempts[i], "SIGKILL after repeated shutdown signal"});
        } else {
          tasks[i].deliver(signo);
          result.interventions.push_back(
              {WorkerIntervention::Kind::kSignalForwarded, tasks[i].worker,
               result.attempts[i],
               std::string("forwarded signal ") + std::to_string(signo)});
        }
      }
    }

    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      TaskState& st = states[i];
      if (st.state == State::kBackoff) {
        if (now >= st.respawn_at) {
          result.interventions.push_back(
              {WorkerIntervention::Kind::kRespawned, tasks[i].worker,
               result.attempts[i] + 1,
               "respawn " + std::to_string(st.respawns) + "/" +
                   std::to_string(options.max_respawns) + " after backoff " +
                   std::to_string(st.backoff_ms / 2) + "ms"});
          spawn(i);
        }
        continue;
      }
      if (st.state != State::kRunning) continue;

      WorkerExit exit;
      exit.worker = tasks[i].worker;
      if (tasks[i].poll(&exit)) {
        result.exits[i] = exit;
        if (exit.ok() || draining || !watchdog ||
            st.respawns >= options.max_respawns) {
          if (!exit.ok() && watchdog && !draining) {
            result.interventions.push_back(
                {WorkerIntervention::Kind::kRetriesExhausted, tasks[i].worker,
                 result.attempts[i],
                 "respawn budget " + std::to_string(options.max_respawns) +
                     " exhausted"});
          }
          st.state = State::kDone;
        } else {
          ++st.respawns;
          st.state = State::kBackoff;
          st.respawn_at = now + std::chrono::milliseconds(st.backoff_ms);
          st.backoff_ms = std::min(st.backoff_ms * 2, options.backoff_max_ms);
        }
        continue;
      }

      if (watchdog && !draining) {
        const std::uint64_t p = options.progress(tasks[i].worker);
        if (p != st.progress_value) {
          st.progress_value = p;
          st.last_progress = now;
        } else if (now - st.last_progress >
                   std::chrono::milliseconds(options.no_progress_timeout_ms)) {
          log_warn("shard supervisor: worker ", tasks[i].worker,
                   " made no progress within ",
                   options.no_progress_timeout_ms, "ms; killing");
          tasks[i].kill();
          st.stall_killed = true;
          st.last_progress = now;  // await the exit, don't re-kill every tick
          result.interventions.push_back(
              {WorkerIntervention::Kind::kStallKilled, tasks[i].worker,
               result.attempts[i],
               "no progress within " +
                   std::to_string(options.no_progress_timeout_ms) + "ms"});
        }
      }
    }

    if (!finished()) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.poll_interval_ms));
    }
  }

  std::sort(result.interventions.begin(), result.interventions.end(),
            [](const WorkerIntervention& a, const WorkerIntervention& b) {
              return std::tie(a.worker, a.attempt, a.kind) <
                     std::tie(b.worker, b.attempt, b.kind);
            });
  return result;
}

SupervisionResult supervise_worker_processes(
    const std::vector<WorkerCommand>& commands,
    const SupervisorOptions& options) {
  struct Proc {
    pid_t pid = -1;
  };
  std::vector<Proc> procs(commands.size());
  std::vector<SupervisedTask> tasks(commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const WorkerCommand& cmd = commands[i];
    tasks[i].worker = cmd.worker;
    tasks[i].start = [&procs, &cmd, i](std::uint32_t) {
      std::vector<char*> argv;
      argv.reserve(cmd.argv.size() + 1);
      for (const std::string& a : cmd.argv) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) {
        log_warn("shard coordinator: fork failed for worker ", cmd.worker);
        return false;
      }
      if (pid == 0) {
        ::execv(argv[0], argv.data());
        // exec failed; exit without running atexit handlers of the parent
        // image's state.
        std::perror("shard worker execv");
        ::_exit(127);
      }
      procs[i].pid = pid;
      return true;
    };
    tasks[i].poll = [&procs, &cmd, i](WorkerExit* exit) {
      int status = 0;
      const pid_t got = ::waitpid(procs[i].pid, &status, WNOHANG);
      if (got <= 0) return false;
      exit->worker = cmd.worker;
      exit->pid = procs[i].pid;
      exit->spawned = true;
      if (WIFEXITED(status)) {
        exit->exit_code = WEXITSTATUS(status);
        exit->signal = 0;
      } else if (WIFSIGNALED(status)) {
        exit->exit_code = -1;
        exit->signal = WTERMSIG(status);
      }
      return true;
    };
    tasks[i].kill = [&procs, i] {
      if (procs[i].pid > 0) ::kill(procs[i].pid, SIGKILL);
    };
    tasks[i].deliver = [&procs, i](int signo) {
      if (procs[i].pid > 0) ::kill(procs[i].pid, signo);
    };
  }
  return supervise_tasks(tasks, options);
}

MergeResult merge_worker_journals(const std::vector<WorkerJournal>& journals,
                                  const Fingerprint& config_fp) {
  MergeResult merged;
  std::unordered_set<Fingerprint, FingerprintHash> seen;
  for (const WorkerJournal& journal : journals) {
    JournalReplay replay = journal_io::replay_dir(journal.dir, config_fp);
    WorkerSegmentOutcome outcome;
    outcome.worker = journal.worker;
    outcome.journal_dir = journal.dir;
    outcome.found = replay.found;
    outcome.records = replay.records.size();
    outcome.issues = std::move(replay.issues);
    for (JournalRecord& rec : replay.records) {
      if (!seen.insert(rec.fp).second) {
        ++merged.duplicate_records;
        continue;
      }
      merged.records.push_back(std::move(rec));
    }
    merged.workers.push_back(std::move(outcome));
  }

  // Global window-index order: the merge contract that makes an N-worker
  // journal indistinguishable from a 1-worker one.
  std::sort(merged.records.begin(), merged.records.end(), fp_less);
  return merged;
}

}  // namespace poc
