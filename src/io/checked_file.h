// The checksummed file layer: the one sanctioned path through which durable
// artifacts (checkpoint view shards, refresh snapshot frames, manifest
// lines) reach the real filesystem.
//
// Every write is covered by a CRC32C — whole files get the 16-byte frame
// trailer of common/crc32c.h, manifest lines get a textual " crc <8-hex>"
// suffix — and every write passes through the owning rank's DiskModel, which
// both charges the simulated clock and injects the plan's silent-corruption
// faults (bit flips, torn writes) *after* the checksum is computed. That
// ordering is the point: corruption strikes below the software, and the
// checksum is what makes it detectable on the read path instead of
// aggregating into a wrong cube.
//
// The layer also owns what a sealed store does around those calls: the one
// transient-error retry loop (RetryTransientIo), the one reader of a
// sealed-line file's durable prefix (ReadSealedLines), and the one way a
// damaged sealed file is moved aside (QuarantineFile).
//
// A lint rule (tools/lint/sncheck.py, raw-file-write) bans direct
// std::ofstream / fopen writes in src/core, src/io, src/net and src/refresh
// outside this layer, so future code cannot quietly bypass integrity
// framing.
#pragma once

#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/disk.h"
#include "relation/serialize.h"

namespace sncube {

// Writes `payload` plus its integrity trailer to `path` (truncating any
// previous contents). Charges the disk for the sealed size up front — a
// transient injected failure (SncubeTransientIoError) means nothing was
// written and the caller may retry the whole call — then applies any
// injected write fault to the sealed bytes before they land. Filesystem
// failures throw SncubeIoError.
void WriteSealedFile(const std::filesystem::path& path,
                     std::span<const std::byte> payload, DiskModel& disk);

// Reads `path`, charges the disk, verifies and strips the trailer, and
// returns the payload. Missing or unreadable files throw SncubeIoError;
// damaged contents (bit flip, truncation, bad trailer) throw
// SncubeCorruptionError.
ByteBuffer ReadSealedFile(const std::filesystem::path& path, DiskModel& disk);

// Textual line integrity: returns `text` with a " crc <8-hex>" suffix
// covering it. `text` must not contain '\n'.
std::string SealLine(const std::string& text);

// Verifies a sealed line and returns the payload text, or std::nullopt when
// the suffix is missing, malformed, or disagrees with the text — a torn or
// damaged line is indistinguishable from an unfinished one by design.
std::optional<std::string> VerifySealedLine(const std::string& line);

// Appends SealLine(text) + '\n' to `path`, with the same charge-first /
// corrupt-after contract as WriteSealedFile. A torn append leaves a partial
// line that VerifySealedLine later rejects.
void AppendSealedLine(const std::filesystem::path& path,
                      const std::string& text, DiskModel& disk);

// Transient-error retries per operation before RetryTransientIo escalates.
inline constexpr int kTransientIoRetries = 4;

// Runs `op`, retrying it while it throws SncubeTransientIoError, up to
// kTransientIoRetries times; `before_retry`, when set, runs before each
// retry (a store charges its backoff wait there). A failure that outlasts
// the budget throws SncubeIoError naming `what`. Sealed writes and reads
// are safe to retry whole: a transient failure happens before any byte
// lands.
void RetryTransientIo(const std::string& what, const std::function<void()>& op,
                      const std::function<void()>& before_retry = {});

// The durable prefix of a file of sealed lines: the payload texts of its
// lines up to, not including, the first that VerifySealedLine rejects (a
// crash-truncated, torn or damaged line ends the prefix). A missing file
// has an empty prefix.
std::vector<std::string> ReadSealedLines(const std::filesystem::path& path);

// Moves a sealed file that failed verification aside to `<path>.corrupt`,
// so nothing half-reads it later and it remains for the post-mortem.
// Returns the new path, or std::nullopt when the rename failed (the file
// is already gone, say).
std::optional<std::string> QuarantineFile(const std::filesystem::path& path);

}  // namespace sncube
