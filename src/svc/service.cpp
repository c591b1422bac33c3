#include "colorbars/svc/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "colorbars/runtime/thread_pool.hpp"

extern char** environ;

namespace colorbars::svc {

namespace {

constexpr const char* kSocketEnv = "COLORBARS_SVC_WORKER_SOCKET";
constexpr const char* kIndexEnv = "COLORBARS_SVC_WORKER_INDEX";
constexpr const char* kGenerationEnv = "COLORBARS_SVC_WORKER_GENERATION";
constexpr const char* kHeartbeatEnv = "COLORBARS_SVC_HEARTBEAT_MS";

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("svc: " + what + ": " + std::strerror(errno));
}

/// Writes the whole buffer (blocking fd). MSG_NOSIGNAL everywhere: a
/// peer that died mid-write must surface as an error, not SIGPIPE.
bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') return fallback;
  return static_cast<int>(parsed);
}

// --- worker side ---

/// The worker's socket, shared between the job loop and the heartbeat
/// thread; the mutex serializes frame writes so frames never interleave.
class WorkerSocket {
 public:
  explicit WorkerSocket(int fd) : fd_(fd) {}
  ~WorkerSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  WorkerSocket(const WorkerSocket&) = delete;
  WorkerSocket& operator=(const WorkerSocket&) = delete;

  bool send_payload(const std::string& payload) {
    const std::string frame = encode_frame(payload);
    const std::lock_guard<std::mutex> lock(write_mutex_);
    return send_all(fd_, frame);
  }

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_;
  std::mutex write_mutex_;
};

/// The worker's heartbeat side thread. Heartbeats come from a side
/// thread so the server can tell a worker mid-trial (live heartbeat, no
/// result yet) from a dead one: a SIGKILLed or segfaulted process stops
/// heartbeating instantly, while a wedged-but-alive one keeps
/// heartbeating and is caught by the per-job deadline instead. Between
/// beats it waits on a condition variable that the destructor notifies,
/// so a worker told to shut down exits at once instead of sleeping out
/// its current interval.
class HeartbeatThread {
 public:
  HeartbeatThread(WorkerSocket& socket, int worker, int interval_ms,
                  const std::atomic<long long>& current_job)
      : thread_([this, &socket, worker, interval_ms, &current_job] {
          std::unique_lock<std::mutex> lock(mutex_);
          while (!wake_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                                 [this] { return stopping_; })) {
            lock.unlock();
            HeartbeatMessage beat;
            beat.worker = worker;
            beat.job_id = current_job.load(std::memory_order_relaxed);
            const bool sent = socket.send_payload(encode_heartbeat(beat));
            lock.lock();
            if (!sent) return;  // server gone
          }
        }) {}
  ~HeartbeatThread() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }
  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  ///< guarded by mutex_
  std::thread thread_;
};

/// Executes one job in this process: a worker's job loop, or one task of
/// the in-process sweep. In a worker, a throwing trial (which parse-time
/// validation should have prevented) kills the worker, and the
/// scheduler's retry path owns recovery.
JobResultMessage execute_job(const JobRequest& job, int worker_index) {
  JobResultMessage result;
  result.id = job.id;
  result.worker = worker_index;
  if (job.is_adaptive) {
    result.is_adaptive = true;
    adapt::AdaptiveLinkSimulator simulator(job.adaptive, job.trajectory);
    result.adaptive = simulator.run();
  } else {
    result.trials_kind = job.kind;
    result.trials = run_job_trials(job);
  }
  return result;
}

int worker_main(const char* socket_path) {
  const int index = env_int(kIndexEnv, -1);
  const int generation = env_int(kGenerationEnv, 0);
  const int heartbeat_ms = env_int(kHeartbeatEnv, 250);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("worker socket");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, socket_path, sizeof(address.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    fail_errno("worker connect");
  }

  WorkerSocket socket(fd);
  HelloMessage hello;
  hello.worker = index;
  hello.generation = generation;
  hello.pid = static_cast<long long>(::getpid());
  if (!socket.send_payload(encode_hello(hello))) return 1;

  std::atomic<long long> current_job{-1};
  const HeartbeatThread heartbeat(socket, index, heartbeat_ms, current_job);

  int status = 0;
  FrameDecoder decoder;
  char buffer[65536];
  bool done = false;
  while (!done) {
    const ssize_t n = ::recv(socket.fd(), buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      status = 1;  // server vanished
      break;
    }
    decoder.feed(buffer, static_cast<std::size_t>(n));
    while (auto payload = decoder.next()) {
      std::string error;
      const auto message = parse_message(*payload, &error);
      if (!message) {
        std::fprintf(stderr, "svc worker %d: bad frame: %s\n", index,
                     error.c_str());
        status = 2;
        done = true;
        break;
      }
      if (message->type == "shutdown") {
        done = true;
        break;
      }
      if (message->type != "job") continue;  // ignore stray frames
      current_job.store(message->job.id, std::memory_order_relaxed);
      const JobResultMessage result = execute_job(message->job, index);
      const bool sent = socket.send_payload(encode_job_result(result));
      current_job.store(-1, std::memory_order_relaxed);
      if (!sent) {
        status = 1;
        done = true;
        break;
      }
    }
    if (decoder.poisoned()) {
      std::fprintf(stderr, "svc worker %d: stream poisoned: %s\n", index,
                   decoder.error().c_str());
      status = 2;
      break;
    }
  }

  return status;
}

// --- server side ---

/// SIGTERM drain flag. sig_atomic_t + a plain handler: the poll loop
/// checks it every tick.
volatile std::sig_atomic_t g_drain_requested = 0;

void drain_handler(int) { g_drain_requested = 1; }

/// Requeues a job survives before the sweep fails (crash loops must
/// not spin forever).
constexpr int kMaxJobRetries = 2;

/// Installs the drain handler for one scheduler run, restoring the
/// previous disposition on scope exit.
class ScopedSigterm {
 public:
  ScopedSigterm() {
    g_drain_requested = 0;
    struct sigaction action{};
    action.sa_handler = drain_handler;
    sigemptyset(&action.sa_mask);
    installed_ = ::sigaction(SIGTERM, &action, &previous_) == 0;
  }
  ~ScopedSigterm() {
    if (installed_) ::sigaction(SIGTERM, &previous_, nullptr);
  }
  ScopedSigterm(const ScopedSigterm&) = delete;
  ScopedSigterm& operator=(const ScopedSigterm&) = delete;

 private:
  bool installed_;
  struct sigaction previous_{};
};

std::string default_socket_path() {
  static std::atomic<unsigned> counter{0};
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  return dir + "/cb-svc-" + std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

pid_t spawn_worker(const std::string& socket_path, int index, int generation,
                   int heartbeat_ms) {
  std::vector<std::string> env_strings;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "COLORBARS_SVC_WORKER_", 21) == 0) continue;
    if (std::strncmp(*entry, "COLORBARS_SVC_HEARTBEAT_MS=", 27) == 0) continue;
    env_strings.emplace_back(*entry);
  }
  env_strings.push_back(std::string(kSocketEnv) + "=" + socket_path);
  env_strings.push_back(std::string(kIndexEnv) + "=" + std::to_string(index));
  env_strings.push_back(std::string(kGenerationEnv) + "=" +
                        std::to_string(generation));
  env_strings.push_back(std::string(kHeartbeatEnv) + "=" +
                        std::to_string(heartbeat_ms));
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (std::string& entry : env_strings) envp.push_back(entry.data());
  envp.push_back(nullptr);

  static char argv0[] = "cb-svc-worker";
  char* argv[] = {argv0, nullptr};
  pid_t pid = -1;
  // The worker is this very binary re-executed: maybe_run_worker() at
  // the top of its main() sees kSocketEnv and switches into worker
  // mode, so no separate worker executable needs discovering.
  const int rc = ::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv,
                               envp.data());
  if (rc != 0) {
    errno = rc;
    fail_errno("posix_spawn worker");
  }
  return pid;
}

struct JobState {
  int retries = 0;
  bool completed = false;
};

struct WorkerSlot {
  int index = 0;
  pid_t pid = -1;
  int fd = -1;
  int generation = 0;
  bool hello_seen = false;
  long long current_job = -1;  ///< index into jobs (== wire id here)
  double job_start_s = 0.0;
  double last_frame_s = 0.0;
  double spawned_at_s = 0.0;
  double respawn_at_s = 0.0;
  double backoff_s = 0.0;
  FrameDecoder decoder;
  WorkerStats stats;
};

/// An accepted connection that has not yet identified itself.
struct PendingConnection {
  int fd = -1;
  double accepted_at_s = 0.0;
  FrameDecoder decoder;
};

/// The scheduler: dispatches `jobs` over a pool of spawned workers and
/// collects results by job id. Single-threaded poll() loop.
class Scheduler {
 public:
  Scheduler(const std::vector<JobRequest>& jobs, const ServiceConfig& config)
      : config_(config), jobs_(jobs), states_(jobs.size()) {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      // Wire ids must equal vector indices — both make_jobs and the
      // adaptive batch assign them that way — so results key directly.
      if (jobs_[i].id != static_cast<long long>(i)) {
        throw std::runtime_error("svc: job ids must be dense and ordered");
      }
    }
  }

  ~Scheduler() { cleanup(); }

  std::vector<JobResultMessage> run(SvcStats* stats_out) {
    const double start_s = now_s();
    const ScopedSigterm sigterm;
    results_.assign(jobs_.size(), JobResultMessage{});
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      queue_.push_back(static_cast<long long>(i));
    }
    stats_.jobs_total = static_cast<long long>(jobs_.size());
    stats_.workers = config_.workers;
    stats_.max_queue_depth = static_cast<long long>(queue_.size());

    open_listener();
    const int heartbeat_ms = std::max(
        1, static_cast<int>(config_.heartbeat_interval_s * 1000.0));
    slots_.resize(static_cast<std::size_t>(config_.workers));
    const double spawn_time = now_s();
    for (int i = 0; i < config_.workers; ++i) {
      WorkerSlot& slot = slots_[static_cast<std::size_t>(i)];
      slot.index = i;
      slot.backoff_s = config_.respawn_backoff_s;
      slot.stats.worker = i;
      slot.pid = spawn_worker(socket_path_, i, slot.generation, heartbeat_ms);
      slot.spawned_at_s = spawn_time;
    }

    while (stats_.jobs_completed < stats_.jobs_total) {
      if (g_drain_requested != 0) draining_ = true;
      if (draining_ && in_flight_count() == 0) break;  // graceful drain done
      dispatch_ready();
      poll_once();
      enforce_timeouts();
      respawn_due();
    }
    const bool complete = stats_.jobs_completed == stats_.jobs_total;
    stats_.drained = draining_ && !complete;
    cleanup();
    stats_.wall_time_s = now_s() - start_s;
    stats_.per_worker.clear();
    for (const WorkerSlot& slot : slots_) stats_.per_worker.push_back(slot.stats);
    if (stats_out != nullptr) *stats_out = stats_;
    if (stats_.drained) {
      throw std::runtime_error("svc: drained on SIGTERM before completion");
    }
    if (!complete) {
      throw std::runtime_error("svc: scheduler stopped with unfinished jobs");
    }
    return std::move(results_);
  }

 private:
  [[nodiscard]] int in_flight_count() const {
    int count = 0;
    for (const WorkerSlot& slot : slots_) count += slot.current_job >= 0 ? 1 : 0;
    return count;
  }

  void open_listener() {
    socket_path_ =
        config_.socket_path.empty() ? default_socket_path() : config_.socket_path;
    sockaddr_un address{};
    if (socket_path_.size() >= sizeof(address.sun_path)) {
      throw std::runtime_error("svc: socket path too long: " + socket_path_);
    }
    // Nonblocking listener: accept_connections() loops until EAGAIN.
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) fail_errno("socket");
    ::unlink(socket_path_.c_str());
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, socket_path_.c_str(),
                 sizeof(address.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0) {
      fail_errno("bind " + socket_path_);
    }
    if (::listen(listen_fd_, config_.workers + 4) != 0) fail_errno("listen");
  }

  void dispatch_ready() {
    if (draining_) return;
    for (WorkerSlot& slot : slots_) {
      if (queue_.empty()) return;
      if (slot.fd < 0 || !slot.hello_seen || slot.current_job >= 0) continue;
      const long long job_index = queue_.front();
      queue_.pop_front();
      const std::string frame =
          encode_frame(encode_job(jobs_[static_cast<std::size_t>(job_index)]));
      if (!send_all(slot.fd, frame)) {
        queue_.push_front(job_index);
        worker_died(slot, "send failed");
        continue;
      }
      slot.stats.bytes_sent += static_cast<long long>(frame.size());
      stats_.bytes_sent += static_cast<long long>(frame.size());
      slot.current_job = job_index;
      slot.job_start_s = now_s();
    }
  }

  void poll_once() {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    std::vector<WorkerSlot*> fd_slots;
    for (WorkerSlot& slot : slots_) {
      if (slot.fd >= 0) {
        fds.push_back({slot.fd, POLLIN, 0});
        fd_slots.push_back(&slot);
      }
    }
    const std::size_t pending_base = fds.size();
    for (PendingConnection& pending : pending_) {
      fds.push_back({pending.fd, POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), 50);
    if (ready < 0) {
      if (errno == EINTR) return;  // likely SIGTERM — loop re-checks drain
      fail_errno("poll");
    }
    if (ready == 0) return;

    if ((fds[0].revents & POLLIN) != 0) accept_connections();
    for (std::size_t i = 0; i < fd_slots.size(); ++i) {
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_worker(*fd_slots[i]);
      }
    }
    // Pending fds may have shifted (accept above appended); match by fd.
    for (std::size_t i = pending_base; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_pending(fds[i].fd);
      }
    }
  }

  void accept_connections() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        fail_errno("accept");
      }
      // Only the hello read stays nonblocking; after adoption the fd
      // reverts to blocking for the dispatch path's send_all.
      PendingConnection pending;
      pending.fd = fd;
      pending.accepted_at_s = now_s();
      pending_.push_back(std::move(pending));
    }
  }

  void read_pending(int fd) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].fd != fd) continue;
      PendingConnection& pending = pending_[i];
      char buffer[4096];
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        ::close(fd);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
      if (n > 0) pending.decoder.feed(buffer, static_cast<std::size_t>(n));
      const auto payload = pending.decoder.next();
      if (!payload) {
        if (pending.decoder.poisoned()) {
          ::close(fd);
          pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        }
        return;
      }
      std::string error;
      const auto message = parse_message(*payload, &error);
      if (!message || message->type != "hello" || message->hello.worker < 0 ||
          message->hello.worker >= static_cast<int>(slots_.size())) {
        ::close(fd);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
      WorkerSlot& slot = slots_[static_cast<std::size_t>(message->hello.worker)];
      if (slot.fd >= 0 || message->hello.generation != slot.generation) {
        // A stale process from a killed generation — refuse it.
        ::close(fd);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
      // Adopt: revert to blocking and inherit any bytes already fed.
      const int flags = ::fcntl(fd, F_GETFL);
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      slot.fd = fd;
      slot.hello_seen = true;
      slot.last_frame_s = now_s();
      slot.decoder = std::move(pending.decoder);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      // Frames queued behind the hello (an eager heartbeat) drain now.
      drain_frames(slot);
      return;
    }
  }

  void read_worker(WorkerSlot& slot) {
    char buffer[65536];
    const ssize_t n = ::recv(slot.fd, buffer, sizeof buffer, MSG_DONTWAIT);
    if (n == 0) {
      worker_died(slot, "connection closed");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      worker_died(slot, "recv failed");
      return;
    }
    slot.last_frame_s = now_s();
    slot.stats.bytes_received += static_cast<long long>(n);
    stats_.bytes_received += static_cast<long long>(n);
    slot.decoder.feed(buffer, static_cast<std::size_t>(n));
    drain_frames(slot);
  }

  void drain_frames(WorkerSlot& slot) {
    while (auto payload = slot.decoder.next()) {
      std::string error;
      const auto message = parse_message(*payload, &error);
      if (!message) {
        worker_died(slot, "bad frame: " + error);
        return;
      }
      if (message->type == "heartbeat") continue;  // recv already stamped time
      if (message->type != "result") continue;
      if (message->result.id != slot.current_job) {
        // A result for a job this slot no longer owns (e.g. it raced a
        // timeout requeue that already completed elsewhere): drop it —
        // the authoritative result is the one recorded first.
        continue;
      }
      const auto job_index = static_cast<std::size_t>(slot.current_job);
      if (!result_answers_job(jobs_[job_index], message->result)) {
        worker_died(slot, "result does not answer job " + std::to_string(slot.current_job));
        return;
      }
      JobState& job = states_[job_index];
      if (!job.completed) {
        job.completed = true;
        results_[static_cast<std::size_t>(slot.current_job)] = message->result;
        ++stats_.jobs_completed;
      }
      const double latency = now_s() - slot.job_start_s;
      ++slot.stats.jobs_completed;
      slot.stats.busy_s += latency;
      slot.stats.max_job_s = std::max(slot.stats.max_job_s, latency);
      slot.current_job = -1;
    }
    if (slot.decoder.poisoned()) {
      worker_died(slot, "stream poisoned: " + slot.decoder.error());
    }
  }

  void worker_died(WorkerSlot& slot, const std::string& reason) {
    if (slot.pid > 0) {
      ::kill(slot.pid, SIGKILL);
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
    }
    if (slot.fd >= 0) ::close(slot.fd);
    if (slot.current_job >= 0) {
      const long long job_id = slot.current_job;
      JobState& job = states_[static_cast<std::size_t>(job_id)];
      ++job.retries;
      ++slot.stats.retries;
      ++stats_.retries;
      if (job.retries > kMaxJobRetries) {
        slot.pid = -1;
        slot.fd = -1;
        slot.current_job = -1;
        cleanup();
        throw std::runtime_error(
            "svc: job " + std::to_string(job_id) + " failed " +
            std::to_string(job.retries) + " times (worker " +
            std::to_string(slot.index) + ": " + reason + ")");
      }
      // Requeue at the front: the retried job is the oldest outstanding
      // work and stalls its point's aggregation until it lands.
      queue_.push_front(slot.current_job);
      stats_.max_queue_depth =
          std::max(stats_.max_queue_depth, static_cast<long long>(queue_.size()));
    }
    std::fprintf(stderr, "svc: worker %d (pid %ld) died: %s — respawning\n",
                 slot.index, static_cast<long>(slot.pid), reason.c_str());
    slot.pid = -1;
    slot.fd = -1;
    slot.hello_seen = false;
    slot.current_job = -1;
    slot.decoder = FrameDecoder{};
    slot.respawn_at_s = now_s() + slot.backoff_s;
    slot.backoff_s = std::min(slot.backoff_s * 2.0, 2.0);
    ++slot.generation;
  }

  void enforce_timeouts() {
    const double now = now_s();
    for (WorkerSlot& slot : slots_) {
      if (slot.pid <= 0) continue;
      if (slot.fd < 0) {
        // Spawned but never connected: give it the liveness window.
        if (now - slot.spawned_at_s > config_.liveness_timeout_s) {
          worker_died(slot, "never connected");
        }
        continue;
      }
      if (now - slot.last_frame_s > config_.liveness_timeout_s) {
        worker_died(slot, "liveness timeout (no heartbeat)");
        continue;
      }
      if (slot.current_job >= 0 &&
          now - slot.job_start_s > config_.job_deadline_s) {
        worker_died(slot, "job deadline exceeded");
      }
    }
  }

  void respawn_due() {
    // During a drain no new work will dispatch, so dead slots stay down.
    if (draining_) return;
    const double now = now_s();
    const int heartbeat_ms = std::max(
        1, static_cast<int>(config_.heartbeat_interval_s * 1000.0));
    for (WorkerSlot& slot : slots_) {
      if (slot.pid > 0 || now < slot.respawn_at_s) continue;
      // Only respawn while there is (or may again be) work to run.
      if (queue_.empty()) continue;
      slot.pid = spawn_worker(socket_path_, slot.index, slot.generation,
                              heartbeat_ms);
      slot.spawned_at_s = now;
      ++slot.stats.respawns;
      ++stats_.respawns;
    }
  }

  void cleanup() {
    if (cleaned_up_) return;
    cleaned_up_ = true;
    for (PendingConnection& pending : pending_) {
      if (pending.fd >= 0) ::close(pending.fd);
    }
    pending_.clear();
    const std::string shutdown_frame = encode_frame(encode_shutdown());
    for (WorkerSlot& slot : slots_) {
      if (slot.pid <= 0) continue;
      if (slot.fd >= 0 && slot.current_job < 0) {
        // Idle worker: ask politely; it reads the frame and _exits.
        (void)send_all(slot.fd, shutdown_frame);
      } else {
        // Busy or never-connected: it would not read a shutdown frame
        // promptly (or at all) — kill it.
        ::kill(slot.pid, SIGKILL);
      }
      if (slot.fd >= 0) ::close(slot.fd);
      slot.fd = -1;
    }
    // Reap only after every worker has been told, so their exits overlap.
    for (WorkerSlot& slot : slots_) {
      if (slot.pid <= 0) continue;
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      slot.pid = -1;
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
  }

  ServiceConfig config_;
  const std::vector<JobRequest>& jobs_;
  std::vector<JobState> states_;
  std::vector<JobResultMessage> results_;
  std::deque<long long> queue_;
  std::vector<WorkerSlot> slots_;
  std::vector<PendingConnection> pending_;
  std::string socket_path_;
  int listen_fd_ = -1;
  bool draining_ = false;
  bool cleaned_up_ = false;
  SvcStats stats_;
};

/// Runs every job and returns the results indexed by job id: on
/// `config.workers` worker processes, or with 0 workers in this
/// process, one job per task on the runtime pool.
std::vector<JobResultMessage> run_jobs(const std::vector<JobRequest>& jobs,
                                       const ServiceConfig& config, SvcStats* stats) {
  if (config.workers < 0 || config.workers > kMaxWorkers) {
    throw std::runtime_error("svc: worker count must be in [0, " +
                             std::to_string(kMaxWorkers) + "]");
  }
  if (config.workers > 0) return Scheduler(jobs, config).run(stats);
  const double start_s = now_s();
  std::vector<JobResultMessage> results(jobs.size());
  runtime::parallel_for(0, static_cast<std::int64_t>(jobs.size()), 1,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            const auto index = static_cast<std::size_t>(i);
                            results[index] = execute_job(jobs[index], -1);
                          }
                        });
  if (stats != nullptr) {
    *stats = SvcStats{};
    stats->jobs_total = static_cast<long long>(jobs.size());
    stats->jobs_completed = stats->jobs_total;
    stats->wall_time_s = now_s() - start_s;
  }
  return results;
}

}  // namespace

bool result_answers_job(const JobRequest& job, const JobResultMessage& result) {
  if (result.id != job.id || result.is_adaptive != job.is_adaptive) return false;
  return job.is_adaptive ||
         (result.trials_kind == job.kind &&
          static_cast<long long>(result.trials.size()) ==
              static_cast<long long>(job.trial_end) - job.trial_begin);
}

std::vector<PointResult> run_sweep(const SweepSpec& spec,
                                   const ServiceConfig& config, SvcStats* stats) {
  const std::vector<JobRequest> jobs = make_jobs(spec);
  const std::vector<JobResultMessage> results = run_jobs(jobs, config, stats);

  // Re-key (job -> trials) into (point, trial) slots, then aggregate in
  // trial-index order. Every result holds exactly its job's rows (the
  // scheduler checks result_answers_job), so each lands in its range.
  std::vector<std::vector<TrialResult>> per_point(spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    per_point[p].resize(
        static_cast<std::size_t>(std::max(0, spec.points[p].trials)));
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::copy(results[j].trials.begin(), results[j].trials.end(),
              per_point[static_cast<std::size_t>(jobs[j].point)].begin() +
                  jobs[j].trial_begin);
  }
  std::vector<PointResult> aggregated;
  aggregated.reserve(spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    aggregated.push_back(aggregate_point(spec.points[p], std::move(per_point[p])));
  }
  return aggregated;
}

std::vector<adapt::AdaptiveRunResult> run_adaptive_batch(
    const std::vector<AdaptiveJob>& runs, const ServiceConfig& config,
    SvcStats* stats) {
  std::vector<JobRequest> jobs;
  jobs.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    JobRequest job;
    job.id = static_cast<long long>(i);
    job.point = static_cast<int>(i);
    job.is_adaptive = true;
    job.adaptive = runs[i].config;
    job.trajectory = runs[i].trajectory;
    jobs.push_back(std::move(job));
  }
  std::vector<JobResultMessage> results = run_jobs(jobs, config, stats);
  std::vector<adapt::AdaptiveRunResult> out;
  out.reserve(results.size());
  for (JobResultMessage& result : results) out.push_back(std::move(result.adaptive));
  return out;
}

void maybe_run_worker() {
  const char* socket_path = std::getenv(kSocketEnv);
  if (socket_path == nullptr || *socket_path == '\0') return;
  int status = 1;
  try {
    status = worker_main(socket_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "svc worker: %s\n", error.what());
    status = 2;
  }
  // _exit, not exit: the worker shares the parent binary's static state
  // (gtest registries, bench report destructors) and must not run its
  // atexit chain as though it finished that program.
  ::_exit(status);
}

int grid_workers_from_env() {
  const char* value = std::getenv("COLORBARS_GRID_WORKERS");
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const long workers = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || workers < 1 || workers > kMaxWorkers) return 0;
  return static_cast<int>(workers);
}

}  // namespace colorbars::svc
