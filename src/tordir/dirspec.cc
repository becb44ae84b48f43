#include "src/tordir/dirspec.h"

#include <array>
#include <charconv>
#include <cstring>
#include <optional>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/serialize.h"
#include "src/crypto/sha256_tree.h"

namespace tordir {
namespace {

using torbase::BufferedTextSink;
using torbase::Result;
using torbase::Status;

// The one prefix-match idiom in this file (the parser used to mix three:
// a StartsWith helper, rfind(prefix, 0) == 0 and substr(0, n) ==).
bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

// --- streaming serializer ----------------------------------------------------
// Every Serialize*/Digest entry point drives the same templated writer over a
// sink: Serialize* uses a StringCursorSink (cursor into the pre-sized output
// string), the digests a BufferedTextSink in front of Sha256::Update — the
// serialized form of a digested document is never materialized. Fields format
// in place (digit pairs, SWAR hex, a canonical-flags table), so serializing
// an n-relay document performs O(1) heap allocations and digesting none.

struct DigestSinkBackend {
  torcrypto::Sha256& hash;
  void Write(const char* data, size_t n) { hash.Update(data, n); }
};

struct TreeDigestSinkBackend {
  torcrypto::Sha256TreeHasher& hash;
  void Write(const char* data, size_t n) { hash.Update(data, n); }
};

struct CountingSinkBackend {
  size_t bytes = 0;
  void Write(const char*, size_t n) { bytes += n; }
};

template <typename Sink>
void AppendU64(Sink& sink, uint64_t value) {
  char* scratch = sink.Scratch(20);
  const auto result = std::to_chars(scratch, scratch + 20, value);
  sink.Commit(static_cast<size_t>(result.ptr - scratch));
}

template <typename Sink>
void AppendHexLower(Sink& sink, std::span<const uint8_t> data) {
  char* scratch = sink.Scratch(data.size() * 2);
  torbase::HexEncodeTo(data, scratch);
  sink.Commit(data.size() * 2);
}

template <typename Sink>
void AppendHexUpper(Sink& sink, std::span<const uint8_t> data) {
  char* scratch = sink.Scratch(data.size() * 2);
  torbase::HexEncodeUpperTo(data, scratch);
  sink.Commit(data.size() * 2);
}

// Canonical flags text, both directions: every one of the 1024 flag masks
// renders to exactly one canonical "s"-line payload (FlagsToString order), and
// honest documents only ever carry canonical payloads. Pre-rendering the table
// turns the serializer's per-relay flag loop into one append and gives the
// parser an exact-match fast path that skips per-word flag lookups entirely.
class FlagsTable {
 public:
  static const FlagsTable& Get() {
    static const FlagsTable table;  // magic static: thread-safe lazy init
    return table;
  }

  std::string_view Text(uint16_t flags) const { return texts_[flags & kAllRelayFlags]; }

  // Mask for a canonical payload; nullopt for any other spelling (duplicate
  // flags, non-canonical order, stray spaces, unknown names) — callers fall
  // back to the word-by-word path. Open-addressing probe over a fixed table
  // (1024 entries in 4096 slots): one fast hash, a slot load or two, and one
  // final byte compare.
  std::optional<uint16_t> Mask(std::string_view text) const {
    uint32_t idx = static_cast<uint32_t>(torbase::QuickKey(text)) & kSlotMask;
    while (slots_[idx] != 0) {
      const uint16_t mask = static_cast<uint16_t>(slots_[idx] - 1);
      if (texts_[mask] == text) {
        return mask;
      }
      idx = (idx + 1) & kSlotMask;
    }
    return std::nullopt;
  }

 private:
  FlagsTable() {
    for (uint32_t mask = 0; mask < kMaskCount; ++mask) {
      texts_[mask] = FlagsToString(static_cast<uint16_t>(mask));
      uint32_t idx = static_cast<uint32_t>(torbase::QuickKey(texts_[mask])) & kSlotMask;
      while (slots_[idx] != 0) {
        idx = (idx + 1) & kSlotMask;
      }
      slots_[idx] = static_cast<uint16_t>(mask + 1);
    }
  }

  static constexpr uint32_t kMaskCount = kAllRelayFlags + 1;
  static constexpr uint32_t kSlotMask = 4 * kMaskCount - 1;  // 25% load factor
  std::array<std::string, kMaskCount> texts_;
  std::array<uint16_t, 4 * kMaskCount> slots_{};
};

// Appends `s` at `p` and advances it; tolerates empty views with null data.
inline void CopyTo(char*& p, std::string_view s) {
  if (!s.empty()) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
}

// Inline decimal formatter (digit-pair table, written backwards into a stack
// scratch): the serializer emits 4-5 integers per relay and the out-of-line
// std::to_chars call was a top-three cost in the profile. Output bytes are
// identical to std::to_chars.
inline constexpr std::array<std::array<char, 2>, 100> kDigitPairs = [] {
  std::array<std::array<char, 2>, 100> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[i] = {static_cast<char>('0' + i / 10), static_cast<char>('0' + i % 10)};
  }
  return pairs;
}();

inline void PutU64(char*& p, uint64_t value) {
  char tmp[20];
  char* t = tmp + sizeof(tmp);
  while (value >= 100) {
    const uint64_t pair = value % 100;
    value /= 100;
    t -= 2;
    std::memcpy(t, kDigitPairs[pair].data(), 2);
  }
  if (value >= 10) {
    t -= 2;
    std::memcpy(t, kDigitPairs[value].data(), 2);
  } else {
    *--t = static_cast<char>('0' + value);
  }
  const size_t digits = static_cast<size_t>(tmp + sizeof(tmp) - t);
  std::memcpy(p, t, digits);
  p += digits;
}

// Slow path for relay rows whose variable-width strings exceed the one-block
// scratch budget below: per-field appends, any sizes.
template <typename Sink>
void AppendRelayGeneric(Sink& sink, std::string_view nickname, std::string_view address,
                        std::string_view version, std::string_view protocols,
                        std::string_view exit_policy, std::string_view flags_text,
                        const RelayStatus& relay, bool include_measured) {
  sink.Append("r ");
  sink.Append(nickname);
  sink.Push(' ');
  AppendHexUpper(sink, relay.fingerprint);
  sink.Push(' ');
  // Descriptor digest stand-in: first 8 bytes of the microdesc digest. Real
  // entries carry a base64 digest of similar width.
  AppendHexLower(sink, std::span<const uint8_t>(relay.microdesc_digest.data(), 8));
  sink.Push(' ');
  sink.Append(address);
  sink.Push(' ');
  AppendU64(sink, relay.or_port);
  sink.Push(' ');
  AppendU64(sink, relay.dir_port);
  sink.Push(' ');
  AppendU64(sink, relay.published);
  sink.Push('\n');

  sink.Append("s ");
  sink.Append(flags_text);
  sink.Push('\n');

  if (!version.empty()) {
    sink.Append("v ");
    sink.Append(version);
    sink.Push('\n');
  }
  if (!protocols.empty()) {
    sink.Append("pr ");
    sink.Append(protocols);
    sink.Push('\n');
  }

  sink.Append("w Bandwidth=");
  AppendU64(sink, relay.bandwidth);
  if (include_measured && relay.measured.has_value()) {
    sink.Append(" Measured=");
    AppendU64(sink, *relay.measured);
  }
  sink.Push('\n');

  sink.Append("p ");
  sink.Append(exit_policy);
  sink.Push('\n');

  sink.Append("m ");
  AppendHexLower(sink, relay.microdesc_digest);
  sink.Push('\n');
}

template <typename Sink>
void AppendRelay(Sink& sink, const StringPool& pool, const FlagsTable& flags_table,
                 const RelayStatus& relay, bool include_measured) {
  const std::string_view nickname = pool.View(relay.nickname.id());
  const std::string_view address = pool.View(relay.address.id());
  const std::string_view version = pool.View(relay.version.id());
  const std::string_view protocols = pool.View(relay.protocols.id());
  const std::string_view exit_policy = pool.View(relay.exit_policy.id());
  const std::string_view flags_text = flags_table.Text(relay.flags);

  // The whole r/s/v/pr/w/p/m group composes into one scratch block: fixed
  // text and hex account for at most ~290 bytes, so one size check on the
  // variable-width strings covers every write below. Realistic rows are a few
  // hundred bytes; anything larger takes the per-field path.
  const size_t variable_bytes = nickname.size() + address.size() + version.size() +
                                protocols.size() + exit_policy.size() + flags_text.size();
  if (variable_bytes > Sink::kScratchMax - 304) {
    AppendRelayGeneric(sink, nickname, address, version, protocols, exit_policy, flags_text,
                       relay, include_measured);
    return;
  }

  // The microdesc digest renders twice (16-char prefix on the r line, full 64
  // on the m line); encode it once.
  char digest_hex[64];
  torbase::HexEncodeTo(relay.microdesc_digest, digest_hex);

  char* const start = sink.Scratch(Sink::kScratchMax);
  char* p = start;
  // "r <nickname> <FP-40-hex> <digest-16-hex> <address> <orport> <dirport>
  // <published>\n"
  *p++ = 'r';
  *p++ = ' ';
  CopyTo(p, nickname);
  *p++ = ' ';
  torbase::HexEncodeUpperTo(relay.fingerprint, p);
  p += 40;
  *p++ = ' ';
  // Descriptor digest stand-in: first 8 bytes of the microdesc digest. Real
  // entries carry a base64 digest of similar width.
  std::memcpy(p, digest_hex, 16);
  p += 16;
  *p++ = ' ';
  CopyTo(p, address);
  *p++ = ' ';
  PutU64(p, relay.or_port);
  *p++ = ' ';
  PutU64(p, relay.dir_port);
  *p++ = ' ';
  PutU64(p, relay.published);
  *p++ = '\n';

  // "s <flags>\n": the canonical rendering is pre-built per mask.
  *p++ = 's';
  *p++ = ' ';
  CopyTo(p, flags_text);
  *p++ = '\n';

  if (!version.empty()) {
    *p++ = 'v';
    *p++ = ' ';
    CopyTo(p, version);
    *p++ = '\n';
  }
  if (!protocols.empty()) {
    *p++ = 'p';
    *p++ = 'r';
    *p++ = ' ';
    CopyTo(p, protocols);
    *p++ = '\n';
  }

  CopyTo(p, "w Bandwidth=");
  PutU64(p, relay.bandwidth);
  if (include_measured && relay.measured.has_value()) {
    CopyTo(p, " Measured=");
    PutU64(p, *relay.measured);
  }
  *p++ = '\n';

  *p++ = 'p';
  *p++ = ' ';
  CopyTo(p, exit_policy);
  *p++ = '\n';

  *p++ = 'm';
  *p++ = ' ';
  std::memcpy(p, digest_hex, 64);
  p += 64;
  *p++ = '\n';
  sink.Commit(static_cast<size_t>(p - start));
}

template <typename Sink>
void AppendRelays(Sink& sink, const std::vector<RelayStatus>& relays, bool include_measured) {
  const StringPool& pool = StringPool::Global();
  const FlagsTable& flags_table = FlagsTable::Get();
  for (size_t i = 0; i < relays.size(); ++i) {
    if (i + 1 < relays.size()) {
      // The next relay's unique strings live at effectively random pool
      // offsets (documents are fingerprint-sorted, ids are intern-order);
      // warming their entry cells overlaps the fetch with this relay's
      // formatting.
      pool.PrefetchView(relays[i + 1].nickname.id());
      pool.PrefetchView(relays[i + 1].address.id());
    }
    AppendRelay(sink, pool, flags_table, relays[i], include_measured);
  }
}

template <typename Sink>
void WriteVote(Sink& sink, const VoteDocument& vote) {
  sink.Append("network-status-version 3 vote\n");
  sink.Append("authority ");
  sink.Append(vote.authority_nickname);
  sink.Push(' ');
  AppendU64(sink, vote.authority);
  sink.Push('\n');
  sink.Append("valid-after ");
  AppendU64(sink, vote.valid_after);
  sink.Push('\n');
  sink.Append("fresh-until ");
  AppendU64(sink, vote.fresh_until);
  sink.Push('\n');
  sink.Append("valid-until ");
  AppendU64(sink, vote.valid_until);
  sink.Push('\n');
  sink.Append("known-flags Authority BadExit Exit Fast Guard HSDir Running Stable V2Dir Valid\n");
  AppendRelays(sink, vote.relays, /*include_measured=*/true);
  sink.Append("directory-footer\n");
}

template <typename Sink>
void WriteConsensusUnsigned(Sink& sink, const ConsensusDocument& consensus) {
  sink.Append("network-status-version 3\n");
  sink.Append("vote-status consensus\n");
  sink.Append("votes-counted ");
  AppendU64(sink, consensus.vote_count);
  sink.Push('\n');
  sink.Append("valid-after ");
  AppendU64(sink, consensus.valid_after);
  sink.Push('\n');
  sink.Append("fresh-until ");
  AppendU64(sink, consensus.fresh_until);
  sink.Push('\n');
  sink.Append("valid-until ");
  AppendU64(sink, consensus.valid_until);
  sink.Push('\n');
  // Consensus bandwidth is the aggregated value in `bandwidth`; no Measured.
  AppendRelays(sink, consensus.relays, /*include_measured=*/false);
  sink.Append("directory-footer\n");
}

template <typename Sink>
void WriteSignatureLines(Sink& sink, const std::vector<torcrypto::Signature>& signatures) {
  for (const auto& sig : signatures) {
    sink.Append("directory-signature ");
    AppendU64(sink, sig.signer);
    sink.Push(' ');
    AppendHexLower(sink, sig.bytes);
    sink.Push('\n');
  }
}

// --- single-pass tokenizer ---------------------------------------------------
// The parsers walk the document with two cursors: LineCursor yields '\n'-split
// views without materializing a whole-document line vector, WordCursor yields
// space-split words of one line without a per-line vector. Both only ever
// advance, so an n-relay vote parses in one pass with zero tokenizer
// allocations.

class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) { has_line_ = Fetch(); }

  bool done() const { return !has_line_; }
  std::string_view line() const { return line_; }
  void Advance() { has_line_ = Fetch(); }

  // Raw-text hooks for the strict relay-entry fast path: where the current
  // line starts in text(), and a re-seek that fetches the line at `pos`.
  std::string_view text() const { return text_; }
  size_t line_start() const { return line_start_; }
  void SeekTo(size_t pos) {
    next_ = pos;
    has_line_ = Fetch();
  }

 private:
  bool Fetch() {
    if (next_ >= text_.size()) {
      return false;
    }
    line_start_ = next_;
    const size_t end = text_.find('\n', next_);
    if (end == std::string_view::npos) {
      line_ = text_.substr(next_);
      next_ = text_.size();
    } else {
      line_ = text_.substr(next_, end - next_);
      next_ = end + 1;
    }
    return true;
  }

  std::string_view text_;
  std::string_view line_;
  size_t next_ = 0;
  size_t line_start_ = 0;
  bool has_line_ = false;
};

class WordCursor {
 public:
  explicit WordCursor(std::string_view line) : line_(line) {}

  // Returns the next word, or an empty view once exhausted (words are never
  // empty: runs of spaces are skipped). The word body is located with
  // find(' ') — memchr under the hood — so long words cost loads, not a
  // char-compare loop.
  std::string_view Next() {
    while (pos_ < line_.size() && line_[pos_] == ' ') {
      ++pos_;
    }
    if (pos_ == line_.size()) {
      return {};
    }
    const size_t start = pos_;
    size_t end = line_.find(' ', start);
    if (end == std::string_view::npos) {
      end = line_.size();
    }
    pos_ = end;
    return line_.substr(start, end - start);
  }

 private:
  std::string_view line_;
  size_t pos_ = 0;
};

Result<uint64_t> ParseU64(std::string_view word) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(word.data(), word.data() + word.size(), value);
  if (ec != std::errc() || ptr != word.data() + word.size()) {
    return Status::InvalidArgument("bad integer: " + std::string(word));
  }
  return value;
}

// Per-document intern memo: a vote repeats a handful of version / protocol /
// exit-policy spellings across thousands of relays; even the pool's lock-free
// probe costs a couple of dependent loads per call. The memo is a tiny
// direct-mapped cache over views into the document being parsed (valid for
// the duration of the Parse call): one hash, one slot, one compare.
// Nicknames and addresses are per-relay unique, so those always intern
// directly.
class InternMemo {
 public:
  InternedString Get(std::string_view s) {
    Entry& entry = entries_[static_cast<uint32_t>(torbase::QuickKey(s)) & (kEntries - 1)];
    if (entry.text == s) {
      return InternedString::FromId(entry.id);
    }
    const InternedString interned(s);
    entry = {s, interned.id()};
    return interned;
  }

 private:
  static constexpr size_t kEntries = 64;
  struct Entry {
    std::string_view text;
    uint32_t id = 0;
  };
  std::array<Entry, kEntries> entries_{};
};

// Shared relay-entry parser for votes and consensuses. The cursor sits on the
// leading "r " line (detected by the caller) and is left on the first line
// that is not part of this entry.
Status ParseRelayEntry(LineCursor& cursor, InternMemo& memo, RelayStatus& relay) {
  {
    const std::string_view r_line = cursor.line();
    WordCursor words(r_line);
    std::array<std::string_view, 8> w;
    size_t count = 0;
    while (count < w.size()) {
      w[count] = words.Next();
      if (w[count].empty()) {
        break;
      }
      ++count;
    }
    if (count != 8 || !words.Next().empty() || w[0] != "r") {
      return Status::InvalidArgument("malformed r line: " + std::string(r_line));
    }
    relay.nickname = w[1];
    if (!torbase::HexDecodeTo(w[2], relay.fingerprint)) {
      return Status::InvalidArgument("bad fingerprint: " + std::string(w[2]));
    }
    // w[3] is the descriptor digest prefix; re-derived from the m line.
    relay.address = w[4];
    auto orp = ParseU64(w[5]);
    auto dirp = ParseU64(w[6]);
    auto pub = ParseU64(w[7]);
    if (!orp.ok() || !dirp.ok() || !pub.ok()) {
      return Status::InvalidArgument("bad numeric field in r line");
    }
    relay.or_port = static_cast<uint16_t>(*orp);
    relay.dir_port = static_cast<uint16_t>(*dirp);
    relay.published = *pub;
    cursor.Advance();
  }
  // First-char dispatch over the per-relay s/v/pr/w/p/m item lines; each case
  // re-checks its full prefix so accept/reject behaviour (and error text)
  // matches the prefix-chain parser this replaces exactly.
  while (!cursor.done()) {
    const std::string_view line = cursor.line();
    bool entry_done = false;
    switch (line.empty() ? '\0' : line[0]) {
      case 's':
        if (StartsWith(line, "s ")) {
          // Canonical payloads (the only kind honest serializers emit) hit
          // the pre-built mask table; anything else takes the word loop.
          if (const auto mask = FlagsTable::Get().Mask(line.substr(2)); mask.has_value()) {
            relay.flags = *mask;
            break;
          }
        } else if (line != "s") {
          entry_done = true;
          break;
        }
        relay.flags = 0;
        {
          WordCursor words(line.substr(1));
          for (std::string_view word = words.Next(); !word.empty(); word = words.Next()) {
            auto flag = RelayFlagFromName(word);
            if (!flag.has_value()) {
              return Status::InvalidArgument("unknown flag: " + std::string(word));
            }
            relay.SetFlag(*flag, true);
          }
        }
        break;
      case 'v':
        if (!StartsWith(line, "v ")) {
          entry_done = true;
          break;
        }
        relay.version = memo.Get(line.substr(2));
        break;
      case 'p':
        if (StartsWith(line, "pr ")) {
          relay.protocols = memo.Get(line.substr(3));
        } else if (StartsWith(line, "p ")) {
          relay.exit_policy = memo.Get(line.substr(2));
        } else {
          entry_done = true;
        }
        break;
      case 'w': {
        if (!StartsWith(line, "w ")) {
          entry_done = true;
          break;
        }
        WordCursor words(line.substr(2));
        for (std::string_view word = words.Next(); !word.empty(); word = words.Next()) {
          if (StartsWith(word, "Bandwidth=")) {
            auto v = ParseU64(word.substr(10));
            if (!v.ok()) {
              return Status::InvalidArgument("bad Bandwidth value");
            }
            relay.bandwidth = *v;
          } else if (StartsWith(word, "Measured=")) {
            auto v = ParseU64(word.substr(9));
            if (!v.ok()) {
              return Status::InvalidArgument("bad Measured value");
            }
            relay.measured = *v;
          }
        }
        break;
      }
      case 'm':
        if (!StartsWith(line, "m ")) {
          entry_done = true;
          break;
        }
        if (!torbase::HexDecodeTo(line.substr(2), relay.microdesc_digest)) {
          return Status::InvalidArgument("bad microdesc digest");
        }
        break;
      default:
        entry_done = true;  // next entry or footer
        break;
    }
    if (entry_done) {
      break;
    }
    cursor.Advance();
  }
  return Status::Ok();
}

// --- strict relay-entry fast path --------------------------------------------
// Single-sweep parser for the exact byte shape AppendRelay emits: single
// spaces, fixed-width hex, canonical flag order, items in r/s/[v]/[pr]/w/p/m
// order. Every honest document is canonical, so this is the steady-state
// path; ANY deviation returns false with no verdict, and the caller re-parses
// the entry with the general ParseRelayEntry above, which preserves the exact
// accept set and error messages. Acceptance here implies the general parser
// would produce the identical RelayStatus, which is what keeps round-trip
// bytes and digests unchanged.

// Parses a decimal run at `pos` inline (the out-of-line std::from_chars call
// showed up in the parse profile). Runs of 19 digits always fit a uint64;
// longer runs (which might overflow) bail to the general parser.
inline bool ScanDigits(std::string_view text, size_t& pos, uint64_t& value) {
  const char* const start = text.data() + pos;
  const char* const end = text.data() + text.size();
  const char* p = start;
  uint64_t v = 0;
  while (p != end) {
    const unsigned digit = static_cast<unsigned char>(*p) - '0';
    if (digit > 9) {
      break;
    }
    v = v * 10 + digit;
    ++p;
  }
  const size_t digits = static_cast<size_t>(p - start);
  if (digits == 0 || digits > 19) {
    return false;
  }
  value = v;
  pos += digits;
  return true;
}

// Same, requiring the run to end exactly at `delim`; advances past it.
inline bool ScanU64(std::string_view text, size_t& pos, char delim, uint64_t& value) {
  if (!ScanDigits(text, pos, value) || pos >= text.size() || text[pos] != delim) {
    return false;
  }
  ++pos;
  return true;
}

// Slices a non-empty word ending at ' ' on the current line; advances past
// the space.
inline bool ScanWord(std::string_view text, size_t& pos, std::string_view& word) {
  const size_t space = text.find(' ', pos);
  if (space == std::string_view::npos || space == pos) {
    return false;
  }
  word = text.substr(pos, space - pos);
  if (word.find('\n') != std::string_view::npos) {
    return false;  // the line ended before the next space
  }
  pos = space + 1;
  return true;
}

bool TryParseRelayEntryFast(StringPool& pool, const FlagsTable& flags_table,
                            std::string_view text, size_t pos, InternMemo& memo,
                            RelayStatus& relay, size_t* end_pos) {
  pos += 2;  // caller verified the "r " prefix
  std::string_view nickname;
  if (!ScanWord(text, pos, nickname)) {
    return false;
  }
  // The unique strings intern through the pool's probe table; issuing the
  // prefetches here hides the dependent-load latency behind the hex and
  // integer decoding below.
  pool.PrefetchIntern(nickname);
  // Fingerprint: exactly 40 hex chars, then ' '.
  if (text.size() - pos < 41 || text[pos + 40] != ' ' ||
      !torbase::HexDecodeTo(text.substr(pos, 40), relay.fingerprint)) {
    return false;
  }
  pos += 41;
  // Descriptor digest stand-in: exactly 16 non-delimiter chars (the general
  // parser ignores the content), then ' '.
  if (text.size() - pos < 17 || text[pos + 16] != ' ') {
    return false;
  }
  for (size_t i = 0; i < 16; ++i) {
    const char c = text[pos + i];
    if (c == ' ' || c == '\n') {
      return false;
    }
  }
  pos += 17;
  std::string_view address;
  if (!ScanWord(text, pos, address)) {
    return false;
  }
  pool.PrefetchIntern(address);
  uint64_t or_port = 0;
  uint64_t dir_port = 0;
  uint64_t published = 0;
  if (!ScanU64(text, pos, ' ', or_port) || !ScanU64(text, pos, ' ', dir_port) ||
      !ScanU64(text, pos, '\n', published)) {
    return false;
  }
  relay.nickname = InternedString::FromId(pool.Intern(nickname));
  relay.address = InternedString::FromId(pool.Intern(address));
  relay.or_port = static_cast<uint16_t>(or_port);
  relay.dir_port = static_cast<uint16_t>(dir_port);
  relay.published = published;

  // "s <canonical flags>\n".
  if (text.size() - pos < 2 || text[pos] != 's' || text[pos + 1] != ' ') {
    return false;
  }
  size_t nl = text.find('\n', pos + 2);
  if (nl == std::string_view::npos) {
    return false;
  }
  const auto mask = flags_table.Mask(text.substr(pos + 2, nl - pos - 2));
  if (!mask.has_value()) {
    return false;
  }
  relay.flags = *mask;
  pos = nl + 1;

  // Optional "v <version>\n".
  if (text.size() - pos >= 2 && text[pos] == 'v' && text[pos + 1] == ' ') {
    nl = text.find('\n', pos + 2);
    if (nl == std::string_view::npos) {
      return false;
    }
    relay.version = memo.Get(text.substr(pos + 2, nl - pos - 2));
    pos = nl + 1;
  }
  // Optional "pr <protocols>\n".
  if (text.size() - pos >= 3 && text[pos] == 'p' && text[pos + 1] == 'r' &&
      text[pos + 2] == ' ') {
    nl = text.find('\n', pos + 3);
    if (nl == std::string_view::npos) {
      return false;
    }
    relay.protocols = memo.Get(text.substr(pos + 3, nl - pos - 3));
    pos = nl + 1;
  }

  // "w Bandwidth=<n>[ Measured=<n>]\n".
  constexpr std::string_view kBandwidth = "w Bandwidth=";
  if (text.substr(pos, kBandwidth.size()) != kBandwidth) {
    return false;
  }
  pos += kBandwidth.size();
  if (!ScanDigits(text, pos, relay.bandwidth) || pos >= text.size()) {
    return false;
  }
  if (text[pos] == '\n') {
    ++pos;
  } else {
    constexpr std::string_view kMeasured = " Measured=";
    if (text.substr(pos, kMeasured.size()) != kMeasured) {
      return false;
    }
    pos += kMeasured.size();
    uint64_t measured = 0;
    if (!ScanU64(text, pos, '\n', measured)) {
      return false;
    }
    relay.measured = measured;
  }

  // "p <policy>\n".
  if (text.size() - pos < 2 || text[pos] != 'p' || text[pos + 1] != ' ') {
    return false;
  }
  nl = text.find('\n', pos + 2);
  if (nl == std::string_view::npos) {
    return false;
  }
  relay.exit_policy = memo.Get(text.substr(pos + 2, nl - pos - 2));
  pos = nl + 1;

  // "m <64 hex>\n".
  if (text.size() - pos < 67 || text[pos] != 'm' || text[pos + 1] != ' ' ||
      text[pos + 66] != '\n' ||
      !torbase::HexDecodeTo(text.substr(pos + 2, 64), relay.microdesc_digest)) {
    return false;
  }
  pos += 67;

  // Termination: the general parser keeps absorbing any further s/v/pr/w/p/m
  // item lines into this entry. Canonical documents never have one here, so
  // anything that even starts like one falls back rather than diverging.
  if (pos < text.size()) {
    const char c = text[pos];
    if (c == 's' || c == 'v' || c == 'p' || c == 'w' || c == 'm') {
      return false;
    }
  }
  *end_pos = pos;
  return true;
}

// Serialized documents average well over 400 bytes per relay (see
// EstimateVoteSizeBytes); dividing by a slightly smaller figure reserves the
// relay vector once with a little headroom instead of growing it a dozen
// times while parsing.
size_t RelayCountUpperBound(size_t text_bytes) { return text_bytes / 400 + 1; }

}  // namespace

std::string SerializeVote(const VoteDocument& vote) {
  std::string out;
  torbase::StringCursorSink sink(out, EstimateVoteSizeBytes(vote.relays.size()));
  WriteVote(sink, vote);
  sink.Finish();
  return out;
}

Result<VoteDocument> ParseVote(const std::string& text) {
  return ParseVote(text, ParseOptions{});
}

Result<VoteDocument> ParseVote(const std::string& text, const ParseOptions& options) {
  LineCursor cursor(text);
  VoteDocument vote;
  if (cursor.done() || cursor.line() != "network-status-version 3 vote") {
    return Status::InvalidArgument("not a v3 vote document");
  }
  cursor.Advance();
  vote.relays.reserve(RelayCountUpperBound(text.size()));
  InternMemo memo;
  StringPool& pool = StringPool::Global();
  const FlagsTable& flags_table = FlagsTable::Get();
  bool saw_footer = false;
  while (!cursor.done()) {
    const std::string_view line = cursor.line();
    // Relay entries first: after the short header every line group starts
    // with "r ", and none of the header prefixes can match it.
    if (StartsWith(line, "r ")) {
      RelayStatus& relay = vote.relays.emplace_back();
      size_t end_pos = 0;
      if (options.use_relay_fast_path &&
          TryParseRelayEntryFast(pool, flags_table, cursor.text(), cursor.line_start(), memo,
                                 relay, &end_pos)) {
        cursor.SeekTo(end_pos);
      } else {
        relay = RelayStatus{};  // the strict sweep may have left partial fields
        if (Status s = ParseRelayEntry(cursor, memo, relay); !s.ok()) {
          return s;
        }
      }
    } else if (StartsWith(line, "authority ")) {
      WordCursor words(line);
      const std::string_view w0 = words.Next();
      const std::string_view w1 = words.Next();
      const std::string_view w2 = words.Next();
      if (w2.empty() || !words.Next().empty()) {
        return Status::InvalidArgument("malformed authority line");
      }
      (void)w0;  // "authority"
      vote.authority_nickname = w1;
      auto id = ParseU64(w2);
      if (!id.ok()) {
        return Status::InvalidArgument("bad authority id");
      }
      vote.authority = static_cast<torbase::NodeId>(*id);
      cursor.Advance();
    } else if (StartsWith(line, "valid-after ")) {
      auto v = ParseU64(line.substr(12));
      if (!v.ok()) {
        return v.status();
      }
      vote.valid_after = *v;
      cursor.Advance();
    } else if (StartsWith(line, "fresh-until ")) {
      auto v = ParseU64(line.substr(12));
      if (!v.ok()) {
        return v.status();
      }
      vote.fresh_until = *v;
      cursor.Advance();
    } else if (StartsWith(line, "valid-until ")) {
      auto v = ParseU64(line.substr(12));
      if (!v.ok()) {
        return v.status();
      }
      vote.valid_until = *v;
      cursor.Advance();
    } else if (StartsWith(line, "known-flags")) {
      cursor.Advance();
    } else if (line == "directory-footer") {
      saw_footer = true;
      cursor.Advance();
      break;
    } else if (line.empty()) {
      cursor.Advance();
    } else {
      return Status::InvalidArgument("unexpected line: " + std::string(line));
    }
  }
  if (!saw_footer) {
    return Status::InvalidArgument("missing directory-footer");
  }
  return vote;
}

torcrypto::Digest256 VoteDigest(const VoteDocument& vote) {
  torcrypto::Sha256 hash;
  DigestSinkBackend backend{hash};
  BufferedTextSink<DigestSinkBackend> sink(backend);
  WriteVote(sink, vote);
  sink.Flush();
  return torcrypto::Digest256(hash.Finish());
}

torcrypto::Digest256 TreeVoteDigest(const VoteDocument& vote) {
  torcrypto::Sha256TreeHasher hash;
  TreeDigestSinkBackend backend{hash};
  BufferedTextSink<TreeDigestSinkBackend> sink(backend);
  WriteVote(sink, vote);
  sink.Flush();
  return torcrypto::Digest256(hash.Finish());
}

std::string SerializeConsensusUnsigned(const ConsensusDocument& consensus) {
  std::string out;
  torbase::StringCursorSink sink(out, EstimateVoteSizeBytes(consensus.relays.size()));
  WriteConsensusUnsigned(sink, consensus);
  sink.Finish();
  return out;
}

std::string SerializeConsensus(const ConsensusDocument& consensus) {
  std::string out;
  torbase::StringCursorSink sink(out, EstimateVoteSizeBytes(consensus.relays.size()) +
                                          consensus.signatures.size() * 160);
  WriteConsensusUnsigned(sink, consensus);
  WriteSignatureLines(sink, consensus.signatures);
  sink.Finish();
  return out;
}

Result<ConsensusDocument> ParseConsensus(const std::string& text) {
  return ParseConsensus(text, ParseOptions{});
}

Result<ConsensusDocument> ParseConsensus(const std::string& text, const ParseOptions& options) {
  LineCursor cursor(text);
  ConsensusDocument consensus;
  if (cursor.done() || cursor.line() != "network-status-version 3") {
    return Status::InvalidArgument("not a v3 consensus document");
  }
  cursor.Advance();
  consensus.relays.reserve(RelayCountUpperBound(text.size()));
  InternMemo memo;
  StringPool& pool = StringPool::Global();
  const FlagsTable& flags_table = FlagsTable::Get();
  bool saw_footer = false;
  while (!cursor.done()) {
    const std::string_view line = cursor.line();
    if (StartsWith(line, "r ")) {
      RelayStatus& relay = consensus.relays.emplace_back();
      size_t end_pos = 0;
      if (options.use_relay_fast_path &&
          TryParseRelayEntryFast(pool, flags_table, cursor.text(), cursor.line_start(), memo,
                                 relay, &end_pos)) {
        cursor.SeekTo(end_pos);
      } else {
        relay = RelayStatus{};  // the strict sweep may have left partial fields
        if (Status s = ParseRelayEntry(cursor, memo, relay); !s.ok()) {
          return s;
        }
      }
    } else if (line == "vote-status consensus") {
      cursor.Advance();
    } else if (StartsWith(line, "votes-counted ")) {
      auto v = ParseU64(line.substr(14));
      if (!v.ok()) {
        return v.status();
      }
      consensus.vote_count = static_cast<uint32_t>(*v);
      cursor.Advance();
    } else if (StartsWith(line, "valid-after ")) {
      auto v = ParseU64(line.substr(12));
      if (!v.ok()) {
        return v.status();
      }
      consensus.valid_after = *v;
      cursor.Advance();
    } else if (StartsWith(line, "fresh-until ")) {
      auto v = ParseU64(line.substr(12));
      if (!v.ok()) {
        return v.status();
      }
      consensus.fresh_until = *v;
      cursor.Advance();
    } else if (StartsWith(line, "valid-until ")) {
      auto v = ParseU64(line.substr(12));
      if (!v.ok()) {
        return v.status();
      }
      consensus.valid_until = *v;
      cursor.Advance();
    } else if (line == "directory-footer") {
      saw_footer = true;
      cursor.Advance();
      // Signature lines follow the footer.
      while (!cursor.done()) {
        const std::string_view sig_line = cursor.line();
        if (sig_line.empty()) {
          cursor.Advance();
          continue;
        }
        if (!StartsWith(sig_line, "directory-signature ")) {
          return Status::InvalidArgument("unexpected line after footer: " + std::string(sig_line));
        }
        WordCursor words(sig_line);
        const std::string_view w0 = words.Next();
        const std::string_view w1 = words.Next();
        const std::string_view w2 = words.Next();
        if (w2.empty() || !words.Next().empty()) {
          return Status::InvalidArgument("malformed directory-signature line");
        }
        (void)w0;  // "directory-signature"
        torcrypto::Signature sig;
        auto signer = ParseU64(w1);
        if (!signer.ok() || !torbase::HexDecodeTo(w2, sig.bytes)) {
          return Status::InvalidArgument("bad signature encoding");
        }
        sig.signer = static_cast<torbase::NodeId>(*signer);
        consensus.signatures.push_back(sig);
        cursor.Advance();
      }
      break;
    } else if (line.empty()) {
      cursor.Advance();
    } else {
      return Status::InvalidArgument("unexpected line: " + std::string(line));
    }
  }
  if (!saw_footer) {
    return Status::InvalidArgument("missing directory-footer");
  }
  return consensus;
}

torcrypto::Digest256 ConsensusDigest(const ConsensusDocument& consensus) {
  torcrypto::Sha256 hash;
  DigestSinkBackend backend{hash};
  BufferedTextSink<DigestSinkBackend> sink(backend);
  WriteConsensusUnsigned(sink, consensus);
  sink.Flush();
  return torcrypto::Digest256(hash.Finish());
}

size_t ConsensusWireSize(const ConsensusDocument& consensus) {
  CountingSinkBackend backend;
  BufferedTextSink<CountingSinkBackend> sink(backend);
  WriteConsensusUnsigned(sink, consensus);
  WriteSignatureLines(sink, consensus.signatures);
  sink.Flush();
  return backend.bytes;
}

torcrypto::Digest256 TreeConsensusDigest(const ConsensusDocument& consensus) {
  torcrypto::Sha256TreeHasher hash;
  TreeDigestSinkBackend backend{hash};
  BufferedTextSink<TreeDigestSinkBackend> sink(backend);
  WriteConsensusUnsigned(sink, consensus);
  sink.Flush();
  return torcrypto::Digest256(hash.Finish());
}

torcrypto::Digest256 TreeSignedConsensusDigest(const ConsensusDocument& consensus) {
  torcrypto::Sha256TreeHasher hash;
  TreeDigestSinkBackend backend{hash};
  BufferedTextSink<TreeDigestSinkBackend> sink(backend);
  WriteConsensusUnsigned(sink, consensus);
  WriteSignatureLines(sink, consensus.signatures);
  sink.Flush();
  return torcrypto::Digest256(hash.Finish());
}

namespace {

// Backend appending onto an existing string: the fragment writers below add
// to a diff under construction rather than owning the whole output, so the
// cursor sink (which resizes its string up front) does not fit.
struct StringAppendBackend {
  std::string& out;
  void Write(const char* data, size_t n) { out.append(data, n); }
};

}  // namespace

void AppendRelayRowText(std::string& out, const RelayStatus& relay, bool include_measured) {
  StringAppendBackend backend{out};
  BufferedTextSink<StringAppendBackend> sink(backend);
  AppendRelay(sink, StringPool::Global(), FlagsTable::Get(), relay, include_measured);
  sink.Flush();
}

void AppendSignatureLinesText(std::string& out,
                              const std::vector<torcrypto::Signature>& signatures) {
  StringAppendBackend backend{out};
  BufferedTextSink<StringAppendBackend> sink(backend);
  WriteSignatureLines(sink, signatures);
  sink.Flush();
}

size_t EstimateVoteSizeBytes(size_t relay_count) {
  // Matches the serialization above: ~100 B "r" + ~40 B "s" + ~16 B "v" +
  // ~120 B "pr" + ~30 B "w" + ~20 B "p" + ~67 B "m" per relay (~390-405 B
  // measured on generator workloads), plus a small header/footer.
  // tests/tordir_test.cc pins the estimate to within 20% of the actual size
  // at 100/1k/8k relays, so drift in either direction fails loudly.
  return 170 + relay_count * 410;
}

}  // namespace tordir
