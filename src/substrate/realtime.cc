#include "substrate/realtime.h"

#include <thread>
#include <utility>

#include "util/macros.h"

namespace ccsim::substrate {

// --- InboundChannel -------------------------------------------------------

net::Message* InboundChannel::BeginPush() {
  for (int spins = 0;; ++spins) {
    if (closed_.load(std::memory_order_acquire) || substrate_->stopping()) {
      return nullptr;
    }
    if (net::Message* slot = ring_.TryReserve()) {
      return slot;
    }
    // Ring full: the loop thread is behind. Yield first (on a single core
    // the consumer needs the CPU to drain), then back off to short sleeps
    // and make sure the loop is awake.
    if (spins < 64) {
      std::this_thread::yield();
    } else {
      substrate_->Kick();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void InboundChannel::CommitPush() {
  ring_.Publish();  // seq_cst, pairs with the loop's idle-flag protocol
  if (substrate_->loop_idle_.load(std::memory_order_seq_cst)) {
    substrate_->Kick();
  }
}

void InboundChannel::Close() {
  closed_.store(true, std::memory_order_release);
  // Wake the loop so it prunes us (and so a drain pass runs even if the
  // close races a final publish).
  substrate_->Kick();
}

// --- RealtimeSubstrate ----------------------------------------------------

std::shared_ptr<InboundChannel> RealtimeSubstrate::OpenChannel(
    std::size_t capacity) {
  std::shared_ptr<InboundChannel> ch(new InboundChannel(this, capacity));
  {
    std::lock_guard<std::mutex> lock(mu_);
    channels_.push_back(ch);
    channels_version_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_one();
  return ch;
}

void RealtimeSubstrate::PostControl(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    control_.push_back(std::move(fn));
    queued_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_one();
}

void RealtimeSubstrate::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_one();
}

void RealtimeSubstrate::Kick() {
  // Take-and-drop the mutex so the wake cannot slip between the loop's
  // final predicate check and its wait.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_one();
}

void RealtimeSubstrate::RefreshChannels() {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(channels_, [](const std::shared_ptr<InboundChannel>& ch) {
    return ch->closed_.load(std::memory_order_acquire) &&
           ch->ring_.ready() == 0;
  });
  active_ = channels_;
  seen_version_ = channels_version_.load(std::memory_order_acquire);
}

bool RealtimeSubstrate::AnyChannelReady() const {
  for (const std::shared_ptr<InboundChannel>& ch : active_) {
    if (ch->ring_.ready() > 0) {
      return true;
    }
  }
  return false;
}

bool RealtimeSubstrate::DrainChannels() {
  if (channels_version_.load(std::memory_order_acquire) != seen_version_) {
    RefreshChannels();
  }
  bool drained = false;
  bool prune = false;
  for (const std::shared_ptr<InboundChannel>& ch : active_) {
    std::size_t n = ch->ring_.ready();
    if (n > 0) {
      CCSIM_CHECK_MSG(sink_ != nullptr, "message injected with no sink");
      drained = true;
      do {
        sink_(std::move(ch->ring_.Front()));
        ch->ring_.Pop();
      } while (--n > 0);
    }
    if (ch->closed_.load(std::memory_order_acquire) &&
        ch->ring_.ready() == 0) {
      prune = true;
    }
  }
  if (prune) {
    RefreshChannels();
  }
  return drained;
}

void RealtimeSubstrate::DrainQueues() {
  std::deque<std::function<void()>> thunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    thunks.swap(control_);
    queued_.fetch_sub(thunks.size(), std::memory_order_release);
  }
  for (std::function<void()>& fn : thunks) {
    fn();
  }
}

void RealtimeSubstrate::SpinUntil(sim::Ticks wake) {
  while (!stop_.load(std::memory_order_acquire) &&
         queued_.load(std::memory_order_acquire) == 0 &&
         !AnyChannelReady()) {
    if (WallTicks() >= wake) {
      return;
    }
    std::this_thread::yield();
  }
}

void RealtimeSubstrate::SleepUntil(sim::Ticks wake) {
  std::unique_lock<std::mutex> lock(mu_);
  loop_idle_.store(true, std::memory_order_seq_cst);
  cv_.wait_until(lock, epoch_ + std::chrono::microseconds(wake), [this] {
    return stop_.load(std::memory_order_relaxed) ||
           queued_.load(std::memory_order_relaxed) > 0 ||
           channels_version_.load(std::memory_order_relaxed) !=
               seen_version_ ||
           AnyChannelReady();
  });
  loop_idle_.store(false, std::memory_order_seq_cst);
}

std::uint64_t RealtimeSubstrate::Run(sim::Ticks horizon) {
  epoch_ = std::chrono::steady_clock::now();
  std::uint64_t events = 0;
  RefreshChannels();
  for (;;) {
    DrainChannels();
    if (queued_.load(std::memory_order_acquire) > 0) {
      DrainQueues();
    }
    if (stop_.load(std::memory_order_acquire)) {
      stop_seen_.store(true, std::memory_order_release);
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
        stop_seen_.store(true, std::memory_order_release);
        break;
      }
    }
    // Push this step's replies onto the wire before deciding to wait: the
    // peers' next requests depend on them.
    bool flushed = true;
    if (flush_hook_) {
      flushed = flush_hook_();
    }
    if (wall >= horizon) {
      break;
    }
    if (AnyChannelReady() || queued_.load(std::memory_order_acquire) > 0 ||
        stop_.load(std::memory_order_acquire)) {
      continue;
    }
    // Wait until the next calendar entry is due (or the horizon), waking
    // early for injections. An empty calendar waits on injections alone.
    const sim::Ticks next = sim_->PeekNextTime();
    sim::Ticks wake = horizon;
    if (next >= 0 && next < wake) {
      wake = next;
    }
    // Cap each wait so an effectively-infinite horizon (a server waiting
    // for work) never overflows the deadline arithmetic — and retry soon
    // when outbound bytes are still stuck in a full socket buffer.
    const sim::Ticks cap =
        wall + (flushed ? sim::kTicksPerSecond : sim::Ticks{200});
    if (wake > cap) {
      wake = cap;
    }
    if (wake - wall <= spin_threshold_) {
      SpinUntil(wake);
    } else {
      SleepUntil(wake);
    }
  }
  // Final flush: hand buffered replies to the kernel so peers that are
  // still running see everything produced before the stop.
  if (flush_hook_) {
    flush_hook_();
  }
  return events;
}

}  // namespace ccsim::substrate
