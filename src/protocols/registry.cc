#include "src/protocols/directory_protocol.h"

#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/core/icps_authority.h"
#include "src/protocols/current/current_authority.h"
#include "src/protocols/sync/sync_authority.h"

namespace torproto {
namespace {

ProtocolConfig LockStepConfig(const ProtocolRunConfig& config) {
  ProtocolConfig proto_config;
  proto_config.authority_count = config.authority_count;
  return proto_config;
}

// The deployed v3 protocol (src/protocols/current).
class CurrentProtocol : public DirectoryProtocol {
 public:
  std::string_view name() const override { return "current"; }
  std::string_view display_name() const override { return "Current"; }

  std::unique_ptr<Authority> MakeAuthority(const ProtocolRunConfig& config,
                                           const torcrypto::KeyDirectory* directory,
                                           torbase::NodeId /*id*/,
                                           AuthorityMaterials materials) const override {
    return std::make_unique<CurrentAuthority>(LockStepConfig(config), directory,
                                              std::move(materials));
  }
};

// Luo et al.'s synchronous fix (src/protocols/sync).
class SynchronousProtocol : public DirectoryProtocol {
 public:
  std::string_view name() const override { return "synchronous"; }
  std::string_view display_name() const override { return "Synchronous"; }

  std::unique_ptr<Authority> MakeAuthority(const ProtocolRunConfig& config,
                                           const torcrypto::KeyDirectory* directory,
                                           torbase::NodeId /*id*/,
                                           AuthorityMaterials materials) const override {
    return std::make_unique<SyncAuthority>(LockStepConfig(config), directory,
                                           std::move(materials));
  }
};

// The paper's ICPS protocol (src/core).
class IcpsProtocol : public DirectoryProtocol {
 public:
  std::string_view name() const override { return "icps"; }
  std::string_view display_name() const override { return "Ours"; }

  std::unique_ptr<Authority> MakeAuthority(const ProtocolRunConfig& config,
                                           const torcrypto::KeyDirectory* directory,
                                           torbase::NodeId /*id*/,
                                           AuthorityMaterials materials) const override {
    toricc::IcpsConfig icps_config;
    icps_config.SetAuthorityCount(config.authority_count);
    icps_config.dissemination_timeout = config.dissemination_timeout;
    icps_config.hotstuff.two_phase = config.two_phase_agreement;
    return std::make_unique<toricc::IcpsAuthority>(icps_config, directory, std::move(materials));
  }
};

using ProtocolMap = std::map<std::string, std::unique_ptr<DirectoryProtocol>, std::less<>>;

ProtocolMap& Registry() {
  static ProtocolMap* registry = [] {
    auto* map = new ProtocolMap();
    for (auto* protocol : {static_cast<DirectoryProtocol*>(new CurrentProtocol()),
                           static_cast<DirectoryProtocol*>(new SynchronousProtocol()),
                           static_cast<DirectoryProtocol*>(new IcpsProtocol())}) {
      (*map)[std::string(protocol->name())] = std::unique_ptr<DirectoryProtocol>(protocol);
    }
    return map;
  }();
  return *registry;
}

}  // namespace

void RegisterProtocol(std::unique_ptr<DirectoryProtocol> protocol) {
  ProtocolMap& registry = Registry();
  registry[std::string(protocol->name())] = std::move(protocol);
}

const DirectoryProtocol* FindProtocol(std::string_view name) {
  ProtocolMap& registry = Registry();
  const auto it = registry.find(name);
  return it == registry.end() ? nullptr : it->second.get();
}

const DirectoryProtocol& GetProtocol(std::string_view name) {
  const DirectoryProtocol* protocol = FindProtocol(name);
  if (protocol == nullptr) {
    std::fprintf(stderr, "unknown directory protocol '%.*s'; registered:",
                 static_cast<int>(name.size()), name.data());
    for (const auto& entry : Registry()) {
      std::fprintf(stderr, " %s", entry.first.c_str());
    }
    std::fprintf(stderr, "\n");
    std::abort();
  }
  return *protocol;
}

std::vector<std::string> RegisteredProtocolNames() {
  std::vector<std::string> names;
  for (const auto& entry : Registry()) {
    names.push_back(entry.first);
  }
  return names;
}

}  // namespace torproto
