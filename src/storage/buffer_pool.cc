#include "storage/buffer_pool.h"

#include <utility>

#include "util/macros.h"

namespace ccsim::storage {

BufferPool::BufferPool(sim::Simulator* simulator, const Params& params,
                       const db::DatabaseLayout* layout,
                       std::vector<Disk*> data_disks,
                       sim::Resource* server_cpu)
    : simulator_(simulator), params_(params), layout_(layout),
      data_disks_(std::move(data_disks)), server_cpu_(server_cpu),
      loading_(static_cast<std::size_t>(layout->total_pages()), nullptr),
      pool_changed_(simulator) {
  CCSIM_CHECK(params_.capacity_pages >= 1);
  CCSIM_CHECK(!data_disks_.empty());
}

BufferPool::~BufferPool() {
  for (sim::Event* event : loading_) {
    if (event != nullptr) {
      load_events_.Release(event);
    }
  }
  xact_pages_.ForEach([this](std::uint64_t, XactPages* pages) {
    xact_pages_pool_.Release(pages);
  });
}

BufferPool::XactPages& BufferPool::XactPagesOf(std::uint64_t xact) {
  if (XactPages* pages = FindXact(xact)) {
    return *pages;
  }
  XactPages* pages = xact_pages_pool_.Acquire();
  pages->dirty.clear();
  pages->flushed.clear();
  xact_pages_.Insert(xact, pages);
  return *pages;
}

void BufferPool::RetireXact(std::uint64_t xact) {
  XactPages* pages = nullptr;
  if (xact_pages_.Erase(xact, &pages)) {
    xact_pages_pool_.Release(pages);
  }
}

sim::Task<void> BufferPool::MakeRoom() {
  // Free one frame slot, evicting LRU victims as needed. Runs *after* the
  // incoming page's I/O, so a tiny pool (the ACL experiment uses
  // BufferSize=1) limits only residency — it does not serialize disk reads
  // behind a single frame.
  while (static_cast<int>(frames_.size()) >= params_.capacity_pages) {
    const auto* victim = frames_.VictimCandidate();
    if (victim == nullptr) {
      // Pool drained by concurrent miss paths; wait for an insert.
      co_await pool_changed_.Wait();
      continue;
    }
    const db::PageId victim_page = victim->key;
    const Frame victim_frame = victim->value;
    // Remove before awaiting so concurrent evictions never pick it twice.
    frames_.Erase(victim_page);
    if (victim_frame.dirty) {
      ++writebacks_;
      if (victim_frame.uncommitted_owner != kCommitted) {
        // Uncommitted data reaches disk: the owner owes undo I/O on abort.
        XactPages& owner = XactPagesOf(victim_frame.uncommitted_owner);
        owner.flushed.insert(victim_page);
        owner.dirty.erase(victim_page);
      }
      co_await server_cpu_->Use(params_.init_disk_cost);
      co_await DiskFor(victim_page)->Access(/*sequential=*/false);
    }
    pool_changed_.Signal();
  }
}

sim::Task<void> BufferPool::FetchPage(db::PageId page, bool sequential) {
  if (frames_.Touch(page) != nullptr) {
    ++hits_;
    co_return;
  }
  if (LoadingOf(page) != nullptr) {
    // Another fetch is already paying the I/O; share it (paper §1 point 2).
    ++hits_;
    while (sim::Event* load = LoadingOf(page)) {
      co_await load->Wait();
      if (frames_.Touch(page) != nullptr) {
        co_return;
      }
      // Evicted between load and our wake-up (tiny pools); fall through to
      // a fresh miss without recounting.
    }
    if (frames_.Touch(page) != nullptr) {
      co_return;
    }
  } else {
    ++misses_;
  }

  sim::Event* load = load_events_.Acquire(simulator_);
  LoadingOf(page) = load;
  co_await server_cpu_->Use(params_.init_disk_cost);
  co_await DiskFor(page)->Access(sequential);
  co_await MakeRoom();
  if (frames_.Find(page) == nullptr) {
    frames_.Insert(page, Frame{});
  }
  // else: an InstallPage raced into the gap an eviction left between this
  // page's load and its insert; the installed (dirty) frame wins and this
  // read's I/O cost stands.
  // Wake sharers, then recycle the event: Signal has already handed its
  // waiters to the calendar.
  load->Signal();
  LoadingOf(page) = nullptr;
  load_events_.Release(load);
  pool_changed_.Signal();
}

sim::Task<void> BufferPool::InstallPage(db::PageId page, std::uint64_t xact) {
  // If a read of this page is in flight, let it land first so we do not
  // insert a duplicate frame.
  while (sim::Event* load = LoadingOf(page)) {
    co_await load->Wait();
  }
  Frame* frame = frames_.Touch(page);
  if (frame == nullptr) {
    co_await MakeRoom();
    frame = frames_.Touch(page);  // re-check: racing install may have won
    if (frame == nullptr) {
      frame = frames_.Insert(page, Frame{});
      pool_changed_.Signal();
    }
  }
  if (frame->uncommitted_owner != kCommitted &&
      frame->uncommitted_owner != xact) {
    CCSIM_CHECK_MSG(params_.allow_owner_usurp,
                    "page %d has another uncommitted owner", page);
    // The previous owner died with a server crash; its image is garbage
    // and the frame passes to the installer.
    if (XactPages* previous = FindXact(frame->uncommitted_owner)) {
      previous->dirty.erase(page);
    }
  }
  frame->dirty = true;
  frame->uncommitted_owner = xact;
  if (xact != kCommitted) {
    XactPagesOf(xact).dirty.insert(page);
  }
}

void BufferPool::CommitTransaction(std::uint64_t xact) {
  if (const XactPages* pages = FindXact(xact)) {
    for (db::PageId page : pages->dirty) {
      Frame* frame = frames_.Find(page);
      if (frame != nullptr && frame->uncommitted_owner == xact) {
        frame->uncommitted_owner = kCommitted;
      }
    }
    RetireXact(xact);
  }
}

std::vector<db::PageId> BufferPool::AbortTransaction(std::uint64_t xact) {
  std::vector<db::PageId> flushed;
  if (const XactPages* pages = FindXact(xact)) {
    flushed.assign(pages->flushed.begin(), pages->flushed.end());
    for (db::PageId page : pages->dirty) {
      Frame* frame = frames_.Find(page);
      if (frame != nullptr && frame->uncommitted_owner == xact) {
        // In-memory undo: the page reverts to its committed image. It stays
        // dirty conservatively (the revert itself modified the frame).
        frame->uncommitted_owner = kCommitted;
      }
    }
    RetireXact(xact);
  }
  return flushed;
}

std::size_t BufferPool::UncommittedFrameCount() const {
  std::size_t count = 0;
  frames_.ForEach([&](const LruTable<db::PageId, Frame>::Entry& e) {
    if (e.value.uncommitted_owner != kCommitted) {
      ++count;
    }
  });
  return count;
}

void BufferPool::AuditConsistency(
    const std::function<bool(std::uint64_t)>& live) const {
  frames_.ForEach([&](const LruTable<db::PageId, Frame>::Entry& e) {
    const std::uint64_t owner = e.value.uncommitted_owner;
    if (owner == kCommitted) {
      return;
    }
    CCSIM_CHECK_MSG(e.value.dirty, "page %d has an uncommitted owner but is "
                    "clean", e.key);
    const XactPages* pages = FindXact(owner);
    CCSIM_CHECK_MSG(pages != nullptr && pages->dirty.contains(e.key),
                    "page %d owned by an uncommitted transaction missing "
                    "from its transaction's page list", e.key);
    if (live) {
      CCSIM_CHECK_MSG(live(owner), "page %d owned by a dead transaction",
                      e.key);
    }
  });
  xact_pages_.ForEach([&](std::uint64_t xact, const XactPages* pages) {
    for (const db::PageId page : pages->dirty) {
      const Frame* frame = frames_.Find(page);
      CCSIM_CHECK_MSG(frame != nullptr && frame->uncommitted_owner == xact &&
                      frame->dirty,
                      "dirty page %d of a transaction's page list has no "
                      "matching frame", page);
    }
  });
}

int BufferPool::CrashReset() {
  int redo_pages = 0;
  frames_.ForEach([&](const LruTable<db::PageId, Frame>::Entry& e) {
    if (e.value.dirty && e.value.uncommitted_owner == kCommitted) {
      ++redo_pages;
    }
  });
  frames_.Clear();
  xact_pages_.ForEach([this](std::uint64_t, XactPages* pages) {
    xact_pages_pool_.Release(pages);
  });
  xact_pages_.Clear();
  // In-flight fetches (loading_) finish as zombies and clean up after
  // themselves; MakeRoom waiters see an empty pool and proceed.
  pool_changed_.Signal();
  return redo_pages;
}

}  // namespace ccsim::storage
