#include "substrate/realtime.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <utility>

#include "util/macros.h"

namespace ccsim::substrate {
namespace {

/// Epoll cookie of the wake eventfd (no watch id reaches it).
constexpr std::uint64_t kWakeCookie = ~std::uint64_t{0};
/// Ready descriptors taken per epoll_pwait2.
constexpr int kMaxEvents = 64;

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

RealtimeSubstrate::RealtimeSubstrate(sim::Simulator* sim) : sim_(sim) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  CCSIM_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed (errno %d)", errno);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  CCSIM_CHECK_MSG(wake_fd_ >= 0, "eventfd failed (errno %d)", errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeCookie;
  CCSIM_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
}

RealtimeSubstrate::~RealtimeSubstrate() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

int RealtimeSubstrate::Watch(int fd, std::uint32_t events,
                             IoHandler* handler) {
  int watch;
  if (free_slots_.empty()) {
    watch = static_cast<int>(slots_.size());
    slots_.emplace_back();
  } else {
    watch = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[static_cast<std::size_t>(watch)];
  slot.handler = handler;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = static_cast<std::uint64_t>(slot.generation) << 32 |
                static_cast<std::uint32_t>(watch);
  CCSIM_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                  "epoll_ctl(ADD) failed (errno %d)", errno);
  return watch;
}

void RealtimeSubstrate::Modify(int watch, int fd, std::uint32_t events) {
  const Slot& slot = slots_[static_cast<std::size_t>(watch)];
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = static_cast<std::uint64_t>(slot.generation) << 32 |
                static_cast<std::uint32_t>(watch);
  CCSIM_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0,
                  "epoll_ctl(MOD) failed (errno %d)", errno);
}

void RealtimeSubstrate::Unwatch(int watch, int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  Slot& slot = slots_[static_cast<std::size_t>(watch)];
  slot.handler = nullptr;
  ++slot.generation;
  free_slots_.push_back(watch);
}

void RealtimeSubstrate::PostControl(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    control_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void RealtimeSubstrate::Stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void RealtimeSubstrate::DrainControl() {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof(count));
  std::vector<std::function<void()>> thunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    thunks.swap(control_);
  }
  for (std::function<void()>& fn : thunks) {
    fn();
  }
}

void RealtimeSubstrate::PollIo(sim::Ticks timeout) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout / sim::kTicksPerSecond);
  ts.tv_nsec = static_cast<long>(timeout % sim::kTicksPerSecond) * 1000;
  if (timeout > 0) {
    ++blocking_waits_;
  }
  epoll_event events[kMaxEvents];
  const int n = ::epoll_pwait2(epoll_fd_, events, kMaxEvents, &ts, nullptr);
  CCSIM_CHECK_MSG(n >= 0 || errno == EINTR, "epoll_pwait2 failed (errno %d)",
                  errno);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t cookie = events[i].data.u64;
    if (cookie == kWakeCookie) {
      DrainControl();
      continue;
    }
    const Slot& slot = slots_[cookie & 0xffffffffu];
    if (slot.handler != nullptr && slot.generation == cookie >> 32) {
      slot.handler->OnReady(events[i].events);
    }
  }
}

void RealtimeSubstrate::ResetLoopStats() {
  blocking_waits_ = 0;
  cpu_base_ = ThreadCpuSeconds();
  wall_base_ = std::chrono::steady_clock::now();
}

std::uint64_t RealtimeSubstrate::Run(sim::Ticks horizon) {
  // Calendar waits are microsecond timeouts; the default 50 µs timer
  // slack would fire them late, so the loop thread asks for none.
  const int slack = ::prctl(PR_GET_TIMERSLACK);
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  epoch_ = std::chrono::steady_clock::now();
  ResetLoopStats();
  std::uint64_t events = 0;
  sim::Ticks timeout = 0;  // the first pass only polls
  for (;;) {
    PollIo(timeout);
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    const sim::Ticks wall = WallTicks();
    const sim::Ticks target = wall < horizon ? wall : horizon;
    if (target >= sim_->Now()) {
      // Fire everything due by `target`, then pin the clock to the wall so
      // injections (and the latencies computed from Now()) line up with
      // real time even when the calendar drained early.
      events += sim_->Run(target);
      sim_->AdvanceTo(target);
      if (sim_->stop_requested()) {
        break;
      }
    }
    // Push this step's replies onto the wire before waiting: the peers'
    // next requests depend on them.
    const bool flushed = flush_hook_ ? flush_hook_() : true;
    if (wall >= horizon) {
      break;
    }
    // Wait until the next calendar entry is due (or the horizon), waking
    // early for ready descriptors. Each wait is capped so an effectively
    // infinite horizon (a server waiting for work) never overflows the
    // deadline arithmetic, and retries soon when outbound bytes are still
    // stuck in a full socket buffer.
    const sim::Ticks next = sim_->PeekNextTime();
    sim::Ticks wake = horizon;
    if (next >= 0 && next < wake) {
      wake = next;
    }
    const sim::Ticks now = WallTicks();
    const sim::Ticks cap =
        now + (flushed ? sim::kTicksPerSecond : sim::Ticks{200});
    if (wake > cap) {
      wake = cap;
    }
    timeout = wake > now ? wake - now : 0;
  }
  // Final flush: hand buffered replies to the kernel so peers that are
  // still running see everything produced before the stop.
  if (flush_hook_) {
    flush_hook_();
  }
  if (slack > 0) {
    ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack));
  }
  loop_cpu_seconds_ = ThreadCpuSeconds() - cpu_base_;
  loop_wall_seconds_ = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_base_)
                           .count();
  return events;
}

}  // namespace ccsim::substrate
