#include "proto/factory.h"

#include <string>

#include "proto/callback.h"
#include "proto/certification.h"
#include "proto/no_wait.h"
#include "proto/two_phase.h"
#include "util/macros.h"

namespace ccsim::proto {
namespace {

std::unique_ptr<ClientProtocol> MakeClientProtocol(
    const config::AlgorithmParams& params, client::Client* client) {
  switch (params.algorithm) {
    case config::Algorithm::kTwoPhaseLocking:
      return std::make_unique<TwoPhaseClient>(client, params.caching);
    case config::Algorithm::kCertification:
      return std::make_unique<CertificationClient>(client, params.caching);
    case config::Algorithm::kCallbackLocking:
      return std::make_unique<CallbackClient>(client,
                                              params.retain_write_locks,
                                              params.explicit_evict_notices);
    case config::Algorithm::kNoWaitLocking:
    case config::Algorithm::kNoWaitNotify:
      return std::make_unique<NoWaitClient>(client);
  }
  CCSIM_UNREACHABLE();
}

std::unique_ptr<ServerProtocol> MakeServerProtocol(
    const config::AlgorithmParams& params, server::Server* server) {
  switch (params.algorithm) {
    case config::Algorithm::kTwoPhaseLocking:
      return std::make_unique<TwoPhaseServer>(server);
    case config::Algorithm::kCertification:
      return std::make_unique<CertificationServer>(
          server, params.test_skip_validation);
    case config::Algorithm::kCallbackLocking:
      return std::make_unique<CallbackServer>(server,
                                              params.retain_write_locks);
    case config::Algorithm::kNoWaitLocking:
      return std::make_unique<NoWaitServer>(server, /*notify=*/false,
                                            /*notify_invalidate=*/false,
                                            /*notify_broadcast=*/false);
    case config::Algorithm::kNoWaitNotify:
      return std::make_unique<NoWaitServer>(server, /*notify=*/true,
                                            params.notify_invalidate,
                                            params.notify_broadcast);
  }
  CCSIM_UNREACHABLE();
}

}  // namespace

std::unique_ptr<client::Client> MakeClient(
    sim::Simulator* simulator, int id, const config::ExperimentConfig& config,
    const db::DatabaseLayout* layout, net::Network* network,
    runner::Metrics* metrics, std::uint64_t seed,
    std::uint64_t xact_seq_base) {
  const auto stream = static_cast<std::uint64_t>(id);
  auto client = std::make_unique<client::Client>(
      simulator, id, config, layout, network, metrics,
      sim::Pcg32(seed, sim::kClientObjectStreamBase + stream),
      sim::Pcg32(seed, sim::kClientDelayStreamBase + stream),
      sim::Pcg32(seed, sim::kClientJitterStreamBase + stream), xact_seq_base);
  client->set_protocol(MakeClientProtocol(config.algorithm, client.get()));
  return client;
}

std::unique_ptr<server::Server> MakeServer(
    sim::Simulator* simulator, const config::ExperimentConfig& config,
    const db::DatabaseLayout* layout, net::Network* network,
    runner::Metrics* metrics, std::uint64_t seed) {
  auto server = std::make_unique<server::Server>(simulator, config, layout,
                                                 network, metrics, seed);
  server->set_protocol(MakeServerProtocol(config.algorithm, server.get()));
  return server;
}

std::unique_ptr<check::Checker> MakeChecker(
    const config::ExperimentConfig& config, std::uint64_t seed,
    std::string_view substrate_note, server::Server* server,
    runner::Metrics* metrics) {
  if (!config.checker.enabled) {
    return nullptr;
  }
  check::Checker::Options options;
  options.pipelined = config.checker.pipelined;
  options.audit_epoch_commits = config.checker.audit_epoch_commits;
  options.queue_capacity = config.checker.queue_capacity;
  options.oracle.context =
      config::AlgorithmLabel(config.algorithm.algorithm,
                             config.algorithm.caching) +
      std::string(substrate_note) + ", seed " + std::to_string(seed);
  auto checker = std::make_unique<check::Checker>(&server->versions(), options);
  checker->set_audit_hook([server] { server->Audit(); });
  metrics->set_checker(checker.get());
  return checker;
}

}  // namespace ccsim::proto
