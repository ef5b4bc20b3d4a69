#include "proto/certification.h"

#include <algorithm>
#include <utility>

#include "storage/buffer_pool.h"
#include "util/macros.h"

namespace ccsim::proto {

sim::Task<bool> CertificationClient::ReadObject(const workload::Step& step) {
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
    if (entry->checked_this_xact) {
      c_.cache().RecordHit();
      c_.cache().Pin(page);
      read_set_.emplace(page, entry->version);
      continue;
    }
    request->pages.push_back(page);
    request->versions.push_back(entry->version);
    c_.cache().Pin(page);
  }

  if (!request->pages.empty() || !request->fetch_pages.empty()) {
    request->type = net::MsgType::kReadRequest;
    request->xact = c_.current_xact();
    const net::PageList check = request->pages;
    net::MessagePtr reply = co_await c_.Rpc(std::move(request));
    if (reply->aborted) {
      // Only possible when the attempt is already dead server-side.
      c_.NoteAbort(c_.current_xact(), reply->pages);
      co_return false;
    }
    for (std::size_t i = 0; i < reply->data_pages.size(); ++i) {
      const db::PageId page = reply->data_pages[i];
      client::CachedPage* entry = c_.cache().Find(page);
      if (entry != nullptr) {
        entry->version = reply->data_versions[i];
      } else {
        client::CachedPage info;
        info.version = reply->data_versions[i];
        co_await c_.InstallPage(page, info);
      }
    }
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
      entry->checked_this_xact = true;
      read_set_[page] = entry->version;
      c_.cache().Pin(page);
    }
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.read_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> CertificationClient::UpdateObject(const workload::Step& step) {
  // Deferred updates: purely local until commit.
  for (db::PageId page : step.write_pages) {
    client::CachedPage* entry = c_.cache().Find(page);
    CCSIM_CHECK(entry != nullptr);
    entry->dirty = true;
    c_.NoteUpdated(page);
  }
  co_await c_.ChargePageProcessing(static_cast<int>(step.write_pages.size()));
  co_return !c_.abort_flag();
}

sim::Task<bool> CertificationClient::Commit(
    const workload::TransactionSpec& spec) {
  (void)spec;
  net::MessagePtr request = net::NewMessage();
  request->type = net::MsgType::kCommitRequest;
  request->xact = c_.current_xact();
  request->data_pages = c_.cache().DirtyPages();
  for (const auto& [page, version] : read_set_) {
    request->read_set.push_back(page);
    request->read_versions.push_back(version);
  }
  net::MessagePtr reply = co_await c_.Rpc(std::move(request));
  if (reply->aborted) {
    c_.NoteAbort(c_.current_xact(), reply->pages);
    c_.set_last_abort_kind(runner::AbortKind::kCertification);
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

sim::Task<void> CertificationClient::OnAttemptEnd(bool committed) {
  if (!committed) {
    // Deferred updates lived in a private buffer; the cached pages still
    // hold their committed images and stay valid at their versions.
    for (db::PageId page : c_.cache().DirtyPages()) {
      c_.cache().Find(page)->dirty = false;
    }
  }
  for (db::PageId page : c_.TakePendingStale()) {
    c_.cache().Erase(page);
  }
  c_.cache().EndTransaction();
  read_set_.clear();
  co_return;
}

sim::Task<void> CertificationServer::Handle(net::MessagePtr msg) {
  switch (msg->type) {
    case net::MsgType::kReadRequest:
      co_await HandleRead(*msg);
      break;
    case net::MsgType::kCommitRequest:
      co_await HandleCommit(*msg);
      break;
    case net::MsgType::kDirtyEvict: {
      // An updated page left the client cache early: stage it in the
      // transaction's private buffer at the server until certification.
      server::XactState* state = s_.FindXact(msg->xact);
      if (state != nullptr && !state->done) {
        for (db::PageId page : msg->data_pages) {
          state->deferred.insert(page);
        }
      }
      break;
    }
    default:
      break;
  }
}

sim::Task<void> CertificationServer::HandleRead(const net::Message& msg) {
  server::XactState* state = s_.FindXact(msg.xact);
  CCSIM_CHECK(state != nullptr);
  net::MessagePtr reply = net::NewMessage();
  reply->type = net::MsgType::kReadReply;
  std::vector<db::PageId> to_read(msg.fetch_pages.begin(),
                                  msg.fetch_pages.end());
  for (std::size_t i = 0; i < msg.pages.size(); ++i) {
    const db::PageId page = msg.pages[i];
    if (s_.versions().Get(page) == msg.versions[i]) {
      s_.directory().Note(state->client, page);
    } else {
      to_read.push_back(page);
    }
  }
  // Certification records its read set at commit time, not here.
  co_await s_.ReadPagesToClient(*state, std::move(to_read), reply.get(),
                                /*record_reads=*/false);
  co_await s_.Reply(msg, std::move(reply));
}

sim::Task<void> CertificationServer::HandleCommit(const net::Message& msg) {
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
  // Backward validation: all read versions must still be current.
  // skip_validation_ (test only) commits blind — the broken variant the
  // consistency oracle is expected to convict with a cycle.
  std::vector<db::PageId> stale;
  if (!skip_validation_) {
    for (std::size_t i = 0; i < msg.read_set.size(); ++i) {
      if (s_.versions().Get(msg.read_set[i]) != msg.read_versions[i]) {
        stale.push_back(msg.read_set[i]);
      }
    }
  }
  if (!stale.empty()) {
    state->stale_pages = stale;
    co_await s_.AbortPipeline(*state);
    net::MessagePtr reply = net::NewMessage();
    reply->type = net::MsgType::kCommitReply;
    reply->aborted = true;
    reply->pages = std::move(stale);
    co_await s_.Reply(msg, std::move(reply));
    co_return;
  }
  // Certified. Validation + version installation happen synchronously so
  // rival commits validate against the new versions.
  for (std::size_t i = 0; i < msg.read_set.size(); ++i) {
    state->read_versions[msg.read_set[i]] = msg.read_versions[i];
  }
  std::vector<db::PageId> updates(msg.data_pages.begin(),
                                  msg.data_pages.end());
  for (db::PageId page : state->deferred) {
    if (std::find(updates.begin(), updates.end(), page) == updates.end()) {
      updates.push_back(page);
    }
  }
  for (db::PageId page : updates) {
    state->updated.insert(page);
  }
  net::MessagePtr reply = net::NewMessage();
  reply->type = net::MsgType::kCommitReply;
  if (!s_.ValidateCommitForRecovery(*state, msg)) {
    // Recovery mode: a dirty eviction never arrived (updated-set gap), so
    // committing would lose that update. (Reads were just re-validated
    // above, so only the coverage check can fail here.)
    reply->aborted = true;
    reply->pages = std::move(state->stale_pages);
    co_await s_.AbortPipeline(*state);
    co_await s_.Reply(msg, std::move(reply));
    co_return;
  }
  s_.BumpVersionsAndRecord(*state, reply.get());
  // Merge the deferred updates into the database (the "update queue" of
  // paper Figure 4); they are committed data now.
  co_await s_.InstallClientUpdates(*state, updates,
                                   storage::BufferPool::kCommitted,
                                   /*charge_cpu=*/true);
  co_await s_.CommitTail(*state);
  co_await s_.Reply(msg, std::move(reply));
}

}  // namespace ccsim::proto
