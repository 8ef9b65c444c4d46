#ifndef DEEPDIVE_FACTOR_IO_H_
#define DEEPDIVE_FACTOR_IO_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "factor/graph.h"
#include "util/result.h"
#include "util/rng.h"

namespace dd {

/// Text serialization of factor graphs — the equivalent of the files
/// DeepDive ships between the grounding phase (inside the database) and
/// the out-of-process DimmWitted sampler (§3.3: "These data structures
/// are then passed to the sampler, which runs outside the database").
///
/// Format (line-oriented, '#' comments allowed):
///   ddfg 1                          header + version
///   V <num_variables>
///   v <id> <is_evidence 0|1> <value 0|1>        (only non-default rows)
///   W <num_weights>
///   w <id> <value> <is_fixed 0|1> <description...>
///   F <num_factors>
///   f <func> <weight_id> <arity> (<var_id> <is_positive 0|1>)*
std::string SerializeGraph(const FactorGraph& graph);

/// Parse a serialized graph. The result is finalized. Fails with
/// ParseError on malformed input (wrong counts, unknown factor function,
/// out-of-range ids).
Result<FactorGraph> DeserializeGraph(const std::string& text);

/// ---- Crash-consistent binary snapshots --------------------------------
///
/// Container format (all integers little-endian):
///   magic   "DDSN"             4 bytes
///   version u32                (currently 1)
///   repeated sections:
///     tag          4 ASCII bytes  (e.g. "GRBN")
///     payload_len  u64
///     payload      payload_len bytes
///     crc32c       u32            over tag + payload_len + payload
///   terminator: a section with tag "END." and payload_len 0
///
/// Every read is bounds-checked; truncation, bit flips, and length
/// overruns are detected (magic/version check, per-section CRC32C that
/// also covers the tag and length fields, strict terminator + no
/// trailing bytes) and reported as Status::Corruption with the byte
/// offset — never undefined behavior. Files are written to a temp path,
/// fsync'ed, and atomically renamed into place, so a crash mid-write
/// leaves either the previous snapshot or none, never a torn one.

class SnapshotWriter {
 public:
  /// Append a section. `tag` must be exactly 4 ASCII characters and
  /// unique within the snapshot.
  void AddSection(const std::string& tag, std::string payload);

  /// Append a binary section whose content lands on an 8-byte file
  /// offset: the payload is WithAlignmentPad(<its file offset>, content),
  /// so an mmap of the file (page-aligned base) yields aligned arrays.
  /// SnapshotView::AlignedSection strips the pad again.
  void AddAlignedSection(const std::string& tag, std::string_view content);

  /// Serialize the container to bytes (in-memory path, used by tests).
  std::string Encode() const;

  /// Encode + write via temp file + fsync + atomic rename.
  Status WriteFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
  size_t size_ = 8;  // encoded bytes so far: magic + version, then sections
};

/// Zero-copy container index: validates the full container (magic,
/// version, per-section CRC32C, terminator, no trailing bytes) and hands
/// out string_views into the caller's buffer. The buffer must outlive the
/// view. MappedSnapshot (storage/snapshot.h) parses mmap'ed files with this.
class SnapshotView {
 public:
  /// Any structural defect yields Status::Corruption (with offset),
  /// never a crash — every read is bounds-checked before dereference.
  static Result<SnapshotView> Parse(std::string_view bytes);

  bool Has(const std::string& tag) const { return sections_.count(tag) > 0; }
  /// A section's payload; NotFound if absent.
  Result<std::string_view> Section(const std::string& tag) const;
  /// The content of a section written by AddAlignedSection: the pad is
  /// validated against the section's file offset and stripped.
  Result<std::string_view> AlignedSection(const std::string& tag) const;

 private:
  const char* base_ = nullptr;  // start of the parsed buffer
  std::map<std::string, std::string_view> sections_;  // tag -> payload
};

/// Wrap `content` as [u8 pad_len][pad_len zero bytes][content] with
/// pad_len chosen so content begins at a file offset divisible by 8;
/// `payload_file_offset` is where the payload starts in the file.
std::string WithAlignmentPad(size_t payload_file_offset, std::string_view content);

/// Validate and strip the pad prefix; Corruption on wrong pad length or
/// nonzero pad bytes.
Result<std::string_view> StripAlignmentPad(size_t payload_file_offset,
                                           std::string_view payload);

/// ---- Typed snapshot of pipeline/learning/inference state --------------
///
/// One container carries any subset of:
///   GRBN  factor graph, binary columnar format (default; 8-byte-aligned
///         arrays readable in place — see storage/snapshot.h)
///   DICT  string pool for GRBN weight descriptions
///   WGHT  dense weight vector (overrides the graph's weights)
///   CHNS  per-chain variable assignments (one byte per variable)
///   CNTS  per-variable marginal tallies (u64)
///   MRGN  marginal probabilities (doubles)
///   RNGS  RNG states (s0, s1 pairs)
///   META  key=value lines (epoch counters, seeds, learning rate, ...)
struct GraphSnapshot {
  bool has_graph = false;
  FactorGraph graph;
  std::vector<double> weights;
  std::vector<std::vector<uint8_t>> chains;
  std::vector<uint64_t> counts;
  std::vector<double> marginals;
  std::vector<RngState> rng_states;
  std::map<std::string, std::string> meta;
};

std::string EncodeGraphSnapshot(const GraphSnapshot& snapshot);
Result<GraphSnapshot> DecodeGraphSnapshot(const std::string& bytes);

/// Atomic (temp + fsync + rename) snapshot write.
Status WriteGraphSnapshot(const GraphSnapshot& snapshot, const std::string& path);
/// Load + validate; Corruption on any truncated/bit-flipped file.
Result<GraphSnapshot> ReadGraphSnapshot(const std::string& path);

/// Exact (bit-preserving) double <-> string for snapshot metadata, via
/// hex float formatting.
std::string FormatExactDouble(double v);
Result<double> ParseExactDouble(const std::string& s);

/// ---- Chain-state checkpoints --------------------------------------------
///
/// The learner (`learn.snap`), the sampling materialization (`infer.snap`)
/// and every shard worker save chains through one layout: CHNS/RNGS (one
/// entry per chain), CNTS + META "num_accumulated" for a tallying chain
/// (GibbsSampler's SaveChains/RestoreChains), WGHT, and decimal META
/// counters. META "kind" names the checkpoint; its identity keys (seeds,
/// schedule, graph fingerprint) must match for a resume to continue the
/// same chain.

/// The META section's `key=value` lines; a line without '=' is Corruption.
Result<std::map<std::string, std::string>> ParseMeta(std::string_view payload);

/// The one strict reader of a decimal META value (checkpoints, run and
/// epoch manifests, serving epochs): a missing key, an empty or non-digit
/// value, or one past u64 is Corruption.
Result<uint64_t> MetaU64(const std::map<std::string, std::string>& meta,
                         const std::string& key);

/// A FormatExactDouble META value; missing or unparsable is Corruption.
Result<double> MetaExactDouble(const std::map<std::string, std::string>& meta,
                               const std::string& key);

/// Numeric identity keys of a checkpoint, in the order they are checked.
using CheckpointIdentity = std::vector<std::pair<std::string, uint64_t>>;

/// Stamp META "kind" and every identity key (decimal) into `snap`.
void StampCheckpoint(const std::string& kind, const CheckpointIdentity& identity,
                     GraphSnapshot* snap);

/// The resume check: a META "kind" other than `kind` (or none), or an
/// identity key holding another value, is InvalidArgument naming it; a
/// missing or non-numeric identity key is Corruption.
Status CheckCheckpoint(const GraphSnapshot& snap, const std::string& kind,
                       const CheckpointIdentity& identity);

/// Install snap.weights into `graph`; a count other than the graph's
/// is InvalidArgument.
Status RestoreWeights(const GraphSnapshot& snap, FactorGraph* graph);

/// stat()-based existence check (shared by checkpoint/recovery code).
bool FileExists(const std::string& path);

/// Read a whole file with checked chunked freads (ferror surfaces as
/// IoError, never a silent short read). Honors the kFactorIoRead
/// failpoint.
Result<std::string> ReadFileBytes(const std::string& path);

/// Durable write protocol shared by every snapshot producer: temp file,
/// full write, fsync, atomic rename. Honors the kFactorIoWrite (short
/// write) and kFactorIoRename failpoints.
Status WriteBytesAtomic(const std::string& bytes, const std::string& path);

}  // namespace dd

#endif  // DEEPDIVE_FACTOR_IO_H_
