#include "proto/two_phase.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"

namespace ccsim::proto {

sim::Task<bool> TwoPhaseClient::ReadObject(const workload::Step& step) {
  // Built in place: cached pages to validate (with their versions) and
  // uncached pages to fetch.
  net::MessagePtr request = net::NewMessage();
  for (db::PageId page : step.read_pages) {
    client::CachedPage* entry = c_.cache().Touch(page);
    if (entry == nullptr) {
      c_.cache().RecordMiss();
      request->fetch_pages.push_back(page);
      continue;
    }
    if (entry->lock != client::PageLock::kNone) {
      // Locked by the current transaction: guaranteed valid, no server
      // contact.
      c_.cache().RecordHit();
      c_.cache().Pin(page);
      continue;
    }
    request->pages.push_back(page);
    request->versions.push_back(entry->version);
    c_.cache().Pin(page);
  }

  if (!request->pages.empty() || !request->fetch_pages.empty()) {
    request->type = net::MsgType::kReadRequest;
    request->xact = c_.current_xact();
    request->mode = lock::LockMode::kShared;
    const net::PageList check = request->pages;
    net::MessagePtr reply = co_await c_.Rpc(std::move(request));
    if (reply->aborted) {
      c_.NoteAbort(c_.current_xact(), reply->pages);
      co_return false;
    }
    for (std::size_t i = 0; i < reply->data_pages.size(); ++i) {
      const db::PageId page = reply->data_pages[i];
      client::CachedPage* entry = c_.cache().Find(page);
      if (entry != nullptr) {
        entry->version = reply->data_versions[i];  // stale copy refreshed
      } else {
        client::CachedPage info;
        info.version = reply->data_versions[i];
        co_await c_.InstallPage(page, info);
      }
    }
    // Checked pages that came back with data were stale: count as misses.
    for (db::PageId page : check) {
      const bool refreshed =
          std::find(reply->data_pages.begin(), reply->data_pages.end(), page) !=
          reply->data_pages.end();
      if (refreshed) {
        c_.cache().RecordMiss();
      } else {
        c_.cache().RecordHit();
      }
    }
    for (db::PageId page : step.read_pages) {
      client::CachedPage* entry = c_.cache().Find(page);
      CCSIM_CHECK(entry != nullptr);
      if (entry->lock == client::PageLock::kNone) {
        entry->lock = client::PageLock::kShared;
      }
      c_.cache().Pin(page);
    }
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.read_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> TwoPhaseClient::UpdateObject(const workload::Step& step) {
  net::MessagePtr request = net::NewMessage();
  for (db::PageId page : step.write_pages) {
    client::CachedPage* entry = c_.cache().Find(page);
    CCSIM_CHECK(entry != nullptr);  // the preceding read pinned it
    if (entry->lock != client::PageLock::kExclusive) {
      request->pages.push_back(page);
    }
  }
  if (!request->pages.empty()) {
    request->type = net::MsgType::kUpgradeRequest;
    request->xact = c_.current_xact();
    request->mode = lock::LockMode::kExclusive;
    const net::PageList upgrade = request->pages;
    net::MessagePtr reply = co_await c_.Rpc(std::move(request));
    if (reply->aborted) {
      c_.NoteAbort(c_.current_xact(), reply->pages);
      co_return false;
    }
    for (db::PageId page : upgrade) {
      client::CachedPage* entry = c_.cache().Find(page);
      CCSIM_CHECK(entry != nullptr);
      entry->lock = client::PageLock::kExclusive;
    }
  }
  for (db::PageId page : step.write_pages) {
    c_.cache().Find(page)->dirty = true;
    c_.NoteUpdated(page);
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.write_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> TwoPhaseClient::Commit(const workload::TransactionSpec& spec) {
  (void)spec;
  net::MessagePtr request = net::NewMessage();
  request->type = net::MsgType::kCommitRequest;
  request->xact = c_.current_xact();
  request->data_pages = c_.cache().DirtyPages();
  net::MessagePtr reply = co_await c_.Rpc(std::move(request));
  if (reply->aborted) {
    c_.NoteAbort(c_.current_xact(), reply->pages);
    co_return false;
  }
  for (std::size_t i = 0; i < reply->pages.size(); ++i) {
    client::CachedPage* entry = c_.cache().Find(reply->pages[i]);
    if (entry != nullptr) {
      entry->version = reply->versions[i];
      entry->dirty = false;
    }
  }
  co_return true;
}

sim::Task<void> TwoPhaseServer::Handle(net::MessagePtr msg) {
  switch (msg->type) {
    case net::MsgType::kReadRequest:
      co_await HandleRead(*msg);
      break;
    case net::MsgType::kUpgradeRequest:
      co_await HandleUpgrade(*msg);
      break;
    case net::MsgType::kCommitRequest:
      co_await HandleCommit(*msg);
      break;
    case net::MsgType::kDirtyEvict:
      co_await HandleDirtyEvict(*msg);
      break;
    default:
      break;  // no other message types under 2PL
  }
}

sim::Task<void> TwoPhaseServer::HandleRead(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  // Lock the cached pages to validate, then the pages to fetch.
  const std::size_t lock_count = msg.pages.size() + msg.fetch_pages.size();
  for (std::size_t i = 0; i < lock_count; ++i) {
    const db::PageId page = i < msg.pages.size()
                                ? msg.pages[i]
                                : msg.fetch_pages[i - msg.pages.size()];
    const lock::LockOutcome outcome =
        co_await s_.locks().Acquire(state->uid, page, msg.mode);
    if (outcome != lock::LockOutcome::kGranted) {
      if (!state->aborted) {
        co_await s_.AbortPipeline(*state);
      }
      net::MessagePtr reply = net::NewMessage();
      reply->type = net::MsgType::kReadReply;
      reply->aborted = true;
      co_await s_.Reply(msg, std::move(reply));
      co_return;
    }
  }
  net::MessagePtr reply = net::NewMessage();
  reply->type = net::MsgType::kReadReply;
  // With the locks held, validate the cached versions; stale copies are
  // re-read and shipped fresh.
  net::PageList to_read = msg.fetch_pages;
  for (std::size_t i = 0; i < msg.pages.size(); ++i) {
    const db::PageId page = msg.pages[i];
    if (s_.versions().Get(page) == msg.versions[i]) {
      state->read_versions[page] = msg.versions[i];
      s_.directory().Note(state->client, page);
    } else {
      to_read.push_back(page);
    }
  }
  co_await s_.ReadPagesToClient(*state, std::move(to_read), reply.get(),
                                /*record_reads=*/true);
  co_await s_.Reply(msg, std::move(reply));
}

sim::Task<void> TwoPhaseServer::HandleUpgrade(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  for (db::PageId page : msg.pages) {
    const lock::LockOutcome outcome = co_await s_.locks().Acquire(
        state->uid, page, lock::LockMode::kExclusive);
    if (outcome != lock::LockOutcome::kGranted) {
      if (!state->aborted) {
        co_await s_.AbortPipeline(*state);
      }
      net::MessagePtr reply = net::NewMessage();
      reply->type = net::MsgType::kUpgradeReply;
      reply->aborted = true;
      co_await s_.Reply(msg, std::move(reply));
      co_return;
    }
  }
  net::MessagePtr reply = net::NewMessage();
  reply->type = net::MsgType::kUpgradeReply;
  co_await s_.Reply(msg, std::move(reply));
}

sim::Task<void> TwoPhaseServer::HandleCommit(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  if (state->aborted || state->done) {
    // Only reachable with fault injection: the transaction was aborted
    // (GC, crash) while this commit was queued or in flight.
    CCSIM_CHECK(s_.resilient());
    net::MessagePtr reply = net::NewMessage();
    reply->type = net::MsgType::kCommitReply;
    reply->aborted = true;
    co_await s_.Reply(msg, std::move(reply));
    co_return;
  }
  co_await s_.InstallClientUpdates(*state, msg.data_pages, state->uid,
                                   /*charge_cpu=*/true);
  net::MessagePtr reply = net::NewMessage();
  reply->type = net::MsgType::kCommitReply;
  if (!s_.ValidateCommitForRecovery(*state, msg)) {
    reply->aborted = true;
    reply->pages = std::move(state->stale_pages);
    if (!state->aborted && !state->done) {
      co_await s_.AbortPipeline(*state);
    } else {
      s_.PurgeUncommitted(state->uid);
    }
    co_await s_.Reply(msg, std::move(reply));
    co_return;
  }
  co_await s_.FinalizeCommit(*state, reply.get());
  s_.locks().ReleaseAll(state->uid);
  co_await s_.Reply(msg, std::move(reply));
}

sim::Task<void> TwoPhaseServer::HandleDirtyEvict(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  if (state == nullptr || state->aborted || state->done) {
    co_return;  // attempt already finished; the data is moot
  }
  // The client holds the X lock (updates follow upgrades), so the page can
  // be installed in place as uncommitted data.
  co_await s_.InstallClientUpdates(*state, msg.data_pages, state->uid,
                                   /*charge_cpu=*/true);
}

}  // namespace ccsim::proto
