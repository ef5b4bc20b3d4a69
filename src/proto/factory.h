#ifndef CCSIM_PROTO_FACTORY_H_
#define CCSIM_PROTO_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "check/checker.h"
#include "client/client.h"
#include "config/params.h"
#include "server/server.h"

namespace ccsim::proto {

// One construction site per model component, shared by the DES runner and
// the real-substrate nodes.

/// Client `id` of a run seeded `seed`: RNG streams derived from (seed, id),
/// the configured algorithm's client protocol, and attempt uids numbered
/// after `xact_seq_base`.
std::unique_ptr<client::Client> MakeClient(
    sim::Simulator* simulator, int id, const config::ExperimentConfig& config,
    const db::DatabaseLayout* layout, net::Network* network,
    runner::Metrics* metrics, std::uint64_t seed,
    std::uint64_t xact_seq_base = 0);

/// The page server with the configured algorithm's server protocol.
std::unique_ptr<server::Server> MakeServer(
    sim::Simulator* simulator, const config::ExperimentConfig& config,
    const db::DatabaseLayout* layout, net::Network* network,
    runner::Metrics* metrics, std::uint64_t seed);

/// The run's checker from config.checker (null when off), handed to every
/// component through `metrics`; its audit hook runs server->Audit().
/// Violation reports name the algorithm, `substrate_note` and the seed.
std::unique_ptr<check::Checker> MakeChecker(
    const config::ExperimentConfig& config, std::uint64_t seed,
    std::string_view substrate_note, server::Server* server,
    runner::Metrics* metrics);

}  // namespace ccsim::proto

#endif  // CCSIM_PROTO_FACTORY_H_
