#include "fleet/checkpoint.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/serialize.h"
#include "ecc/crc32.h"

namespace rdsim::fleet {

namespace {

using serialize::append_pod;
using serialize::read_pod;

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

std::vector<std::uint8_t> pack_checkpoint(
    std::uint32_t config_digest,
    const std::vector<CheckpointSection>& sections) {
  std::vector<std::uint8_t> out;
  append_pod(&out, kCheckpointMagic);
  append_pod(&out, kCheckpointVersion);
  append_pod(&out, config_digest);
  append_pod(&out, static_cast<std::uint32_t>(sections.size()));
  for (const CheckpointSection& s : sections) {
    append_pod(&out, s.tag);
    append_pod(&out, static_cast<std::uint64_t>(s.payload.size()));
    out.insert(out.end(), s.payload.begin(), s.payload.end());
    append_pod(&out, ecc::crc32(s.payload));
  }
  return out;
}

bool unpack_checkpoint(const std::vector<std::uint8_t>& bytes,
                       std::uint32_t* config_digest,
                       std::vector<CheckpointSection>* sections,
                       std::string* error) {
  std::size_t offset = 0;
  std::uint32_t magic = 0, version = 0, digest = 0, count = 0;
  if (!read_pod(bytes, &offset, &magic))
    return fail(error, "checkpoint truncated: missing magic");
  if (magic != kCheckpointMagic)
    return fail(error, "checkpoint bad magic (not an rdsim fleet checkpoint)");
  if (!read_pod(bytes, &offset, &version))
    return fail(error, "checkpoint truncated: missing version");
  if (version != kCheckpointVersion)
    return fail(error, "checkpoint unsupported version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kCheckpointVersion) + ")");
  if (!read_pod(bytes, &offset, &digest) || !read_pod(bytes, &offset, &count))
    return fail(error, "checkpoint truncated: missing header fields");

  // Each section takes at least its 16 framing bytes, so a count the
  // buffer cannot hold is truncation, not an allocation request.
  constexpr std::size_t kFraming = 2 * sizeof(std::uint32_t) +
                                   sizeof(std::uint64_t);
  if (count > (bytes.size() - offset) / kFraming)
    return fail(error, "checkpoint truncated: " + std::to_string(count) +
                           " sections declared");
  std::vector<CheckpointSection> parsed;
  parsed.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CheckpointSection s;
    std::uint64_t length = 0;
    if (!read_pod(bytes, &offset, &s.tag) ||
        !read_pod(bytes, &offset, &length))
      return fail(error, "checkpoint truncated: section " +
                             std::to_string(i) + " header");
    if (length > bytes.size() - offset)
      return fail(error, "checkpoint truncated: section " +
                             std::to_string(i) + " payload (" +
                             std::to_string(length) + " bytes declared)");
    s.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                     bytes.begin() +
                         static_cast<std::ptrdiff_t>(offset + length));
    offset += length;
    std::uint32_t stored_crc = 0;
    if (!read_pod(bytes, &offset, &stored_crc))
      return fail(error, "checkpoint truncated: section " +
                             std::to_string(i) + " CRC");
    if (ecc::crc32(s.payload) != stored_crc)
      return fail(error, "checkpoint section " + std::to_string(i) +
                             " CRC mismatch (bit corruption)");
    parsed.push_back(std::move(s));
  }
  if (offset != bytes.size())
    return fail(error, "checkpoint over-long: " +
                           std::to_string(bytes.size() - offset) +
                           " trailing bytes after last section");
  if (config_digest != nullptr) *config_digest = digest;
  if (sections != nullptr) *sections = std::move(parsed);
  return true;
}

const CheckpointSection* find_section(
    const std::vector<CheckpointSection>& sections, std::uint32_t tag) {
  for (const CheckpointSection& s : sections)
    if (s.tag == tag) return &s;
  return nullptr;
}

bool write_checkpoint_file(const std::string& path,
                           const std::vector<std::uint8_t>& bytes,
                           std::string* error) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);  // best-effort
  }
  // Same-directory temp file so the rename is atomic (no cross-device
  // moves); pid-suffixed so concurrent runs never clobber each other's
  // staging file.
  const fs::path temp =
      target.parent_path() /
      (target.filename().string() + ".tmp." + std::to_string(::getpid()));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out)
      return fail(error, "cannot open temp checkpoint file " + temp.string());
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      fs::remove(temp, ec);
      return fail(error, "short write to temp checkpoint " + temp.string());
    }
  }
  fs::rename(temp, target, ec);
  if (ec) {
    fs::remove(temp, ec);
    return fail(error,
                "cannot rename checkpoint into place: " + target.string());
  }
  return true;
}

bool read_checkpoint_file(const std::string& path,
                          std::vector<std::uint8_t>* bytes,
                          std::string* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return fail(error, "cannot open checkpoint file " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  bytes->resize(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes->data()), size))
    return fail(error, "short read from checkpoint file " + path);
  return true;
}

}  // namespace rdsim::fleet
