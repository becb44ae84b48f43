// Pluggable directory-protocol abstraction. The experiment and scenario
// layers dispatch on this interface instead of switching over an enum: a
// protocol is a named factory of torproto::Authority, and everything the
// paper measures is read off the authorities it builds (src/protocols/
// authority.h), so adding a fourth protocol is one registration instead of
// three switch statements, and a protocol that wraps another cannot drop a
// metric on the way.
#ifndef SRC_PROTOCOLS_DIRECTORY_PROTOCOL_H_
#define SRC_PROTOCOLS_DIRECTORY_PROTOCOL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/crypto/signature.h"
#include "src/protocols/authority.h"

namespace torproto {

// Run-level knobs shared by every protocol factory. Implementations consume
// what applies to them and ignore the rest (the ICPS fields are no-ops for the
// lock-step protocols).
struct ProtocolRunConfig {
  uint32_t authority_count = 9;
  // ICPS dissemination wait Δ.
  torbase::Duration dissemination_timeout = torbase::Seconds(150);
  // ICPS agreement commit path: false = 3-phase HotStuff, true = Jolteon-style
  // 2-phase (the paper's variant).
  bool two_phase_agreement = false;
};

class DirectoryProtocol {
 public:
  virtual ~DirectoryProtocol() = default;

  // Registry key, e.g. "current". Lowercase, stable across releases.
  virtual std::string_view name() const = 0;
  // Column label for tables and figures, e.g. "Current" or "Ours".
  virtual std::string_view display_name() const = 0;

  // Builds authority `id`. `directory` outlives the authority; `materials`
  // carries its own (shared, immutable) vote document and text plus the
  // workload vote cache, so sweep cells never re-serialize, re-parse or
  // deep-copy multi-megabyte votes per authority per run. Byzantine
  // authorities arrive here with faulty materials already substituted
  // (src/protocols/byzantine.h), so misbehavior composes with every protocol.
  virtual std::unique_ptr<Authority> MakeAuthority(const ProtocolRunConfig& config,
                                                   const torcrypto::KeyDirectory* directory,
                                                   torbase::NodeId id,
                                                   AuthorityMaterials materials) const = 0;
};

// --- registry ----------------------------------------------------------------
// The built-in protocols ("current", "synchronous", "icps") register lazily on
// first lookup; tests and downstream code may add more. Registering a name
// twice replaces the earlier implementation.

void RegisterProtocol(std::unique_ptr<DirectoryProtocol> protocol);

// nullptr when `name` is unknown.
const DirectoryProtocol* FindProtocol(std::string_view name);

// Aborts with a diagnostic when `name` is unknown — scenario specs naming a
// missing protocol are configuration errors.
const DirectoryProtocol& GetProtocol(std::string_view name);

// Sorted registry keys.
std::vector<std::string> RegisteredProtocolNames();

}  // namespace torproto

#endif  // SRC_PROTOCOLS_DIRECTORY_PROTOCOL_H_
