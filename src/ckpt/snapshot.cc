#include "ckpt/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/fault_injection.h"
#include "common/parse.h"

namespace gmr::ckpt {
namespace {

namespace fs = std::filesystem;

constexpr char kSnapshotHeader[] = "# gmr-ckpt v1";
constexpr char kManifestHeader[] = "# gmr-ckpt-manifest v1";
constexpr char kManifestName[] = "MANIFEST";

std::string Hex32(std::uint32_t value) {
  char buffer[9];
  std::snprintf(buffer, sizeof(buffer), "%08x", value);
  return buffer;
}

bool ParseHex32(const std::string& token, std::uint32_t* value) {
  if (token.size() != 8) return false;
  char* end = nullptr;
  const unsigned long v = std::strtoul(token.c_str(), &end, 16);
  if (end != token.c_str() + token.size()) return false;
  *value = static_cast<std::uint32_t>(v);
  return true;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t begin = 0;
  while (begin < line.size()) {
    while (begin < line.size() && line[begin] == ' ') ++begin;
    if (begin >= line.size()) break;
    std::size_t end = line.find(' ', begin);
    if (end == std::string::npos) end = line.size();
    fields.push_back(line.substr(begin, end - begin));
    begin = end;
  }
  return fields;
}

/// The chained record content: everything in a manifest line except the
/// chain value itself.
std::string EntryCore(const SnapshotStore::Entry& entry) {
  return std::to_string(entry.seq) + " " + std::to_string(entry.step) + " " +
         entry.file + " " + Hex32(entry.file_crc);
}

Status ReadWholeFile(const std::string& path, std::string* bytes) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::Error("cannot open " + path);
  bytes->clear();
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes->append(buffer, n);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) return Status::Error("read error on " + path);
  return Status::Ok();
}

}  // namespace

std::uint32_t Crc32(std::uint32_t crc, const void* data, std::size_t size) {
  static const std::uint32_t* const kTable = [] {
    static std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

Section* Snapshot::AddSection(const std::string& name) {
  sections.push_back(Section{name, {}});
  return &sections.back();
}

const Section* Snapshot::FindSection(const std::string& name) const {
  for (const Section& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

std::string EncodeSnapshot(const Snapshot& snapshot) {
  std::string out = kSnapshotHeader;
  out.push_back('\n');
  out += "driver " + snapshot.driver + "\n";
  out += "step " + std::to_string(snapshot.step) + "\n";
  for (const Section& section : snapshot.sections) {
    out += "section " + section.name + " " +
           std::to_string(section.lines.size()) + "\n";
    for (const std::string& line : section.lines) {
      out += line;
      out.push_back('\n');
    }
  }
  const std::uint32_t crc = Crc32(0, out.data(), out.size());
  out += "crc " + Hex32(crc) + "\n";
  return out;
}

Status DecodeSnapshot(const std::string& bytes, Snapshot* snapshot) {
  if (bytes.empty() || bytes.back() != '\n') {
    return Status::Error("snapshot truncated (no trailing newline)");
  }
  // Locate the final "crc ..." line and verify it seals everything before.
  const std::size_t last_line_start = bytes.rfind('\n', bytes.size() - 2);
  const std::size_t crc_line_begin =
      last_line_start == std::string::npos ? 0 : last_line_start + 1;
  const std::string crc_line =
      bytes.substr(crc_line_begin, bytes.size() - 1 - crc_line_begin);
  std::uint32_t recorded_crc;
  if (crc_line.size() != 12 || crc_line.compare(0, 4, "crc ") != 0 ||
      !ParseHex32(crc_line.substr(4), &recorded_crc)) {
    return Status::Error("snapshot missing crc seal");
  }
  const std::uint32_t actual_crc = Crc32(0, bytes.data(), crc_line_begin);
  if (actual_crc != recorded_crc) {
    return Status::Error("snapshot crc mismatch");
  }

  const std::vector<std::string> lines =
      SplitLines(bytes.substr(0, crc_line_begin));
  std::size_t i = 0;
  if (i >= lines.size() || lines[i] != kSnapshotHeader) {
    return Status::Error("bad snapshot header");
  }
  ++i;
  Snapshot parsed;
  if (i >= lines.size() || lines[i].compare(0, 7, "driver ") != 0) {
    return Status::Error("missing driver line");
  }
  parsed.driver = lines[i].substr(7);
  ++i;
  if (i >= lines.size() || lines[i].compare(0, 5, "step ") != 0 ||
      !ParseUnsigned(lines[i].substr(5), &parsed.step)) {
    return Status::Error("missing step line");
  }
  ++i;
  while (i < lines.size()) {
    const std::vector<std::string> fields = SplitFields(lines[i]);
    std::uint64_t count;
    if (fields.size() != 3 || fields[0] != "section" ||
        !ParseUnsigned(fields[2], &count)) {
      return Status::Error("bad section header at line " + std::to_string(i));
    }
    ++i;
    if (i + count > lines.size()) {
      return Status::Error("section '" + fields[1] + "' truncated");
    }
    Section* section = parsed.AddSection(fields[1]);
    section->lines.assign(lines.begin() + static_cast<long>(i),
                          lines.begin() + static_cast<long>(i + count));
    i += count;
  }
  *snapshot = std::move(parsed);
  return Status::Ok();
}

SnapshotStore::SnapshotStore(std::string dir, int retain)
    : dir_(std::move(dir)), retain_(retain < 1 ? 1 : retain) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) return;
  ok_ = true;

  // Sweep stray temp files from torn writes (crash between write and
  // rename): they were never linked into the manifest, so deleting them is
  // always safe.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code ignore;
      fs::remove(entry.path(), ignore);
    }
  }

  // Accept the valid chain prefix of an existing manifest; anything after
  // the first bad record (torn tail, tampering) is ignored.
  std::string bytes;
  if (!ReadWholeFile(PathFor(kManifestName), &bytes).ok()) return;
  const std::vector<std::string> lines = SplitLines(bytes);
  if (lines.empty() || lines[0] != kManifestHeader) return;
  std::uint32_t chain = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::vector<std::string> fields = SplitFields(lines[i]);
    Entry entry;
    if (fields.size() != 6 || fields[0] != "snap" ||
        !ParseUnsigned(fields[1], &entry.seq) ||
        !ParseUnsigned(fields[2], &entry.step) ||
        !ParseHex32(fields[4], &entry.file_crc) ||
        !ParseHex32(fields[5], &entry.chain)) {
      break;
    }
    entry.file = fields[3];
    const std::string core = EntryCore(entry);
    const std::uint32_t expected = Crc32(chain, core.data(), core.size());
    if (entry.chain != expected) break;
    chain = expected;
    if (entry.seq >= next_seq_) next_seq_ = entry.seq + 1;
    entries_.push_back(std::move(entry));
  }
}

std::string SnapshotStore::PathFor(const std::string& basename) const {
  return dir_ + "/" + basename;
}

Status SnapshotStore::WriteFileDurably(const std::string& basename,
                                       const std::string& bytes) {
  if (FaultInjected(FaultPoint::kCkptWrite)) {
    return Status::Error("fault injection: ckpt_write");
  }
  const std::string tmp_path = PathFor(basename + ".tmp");
  const std::string final_path = PathFor(basename);
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) return Status::Error("cannot open " + tmp_path);
  const std::size_t written =
      std::fwrite(bytes.data(), 1, bytes.size(), file);
  if (written != bytes.size() || std::fflush(file) != 0) {
    std::fclose(file);
    std::remove(tmp_path.c_str());
    return Status::Error("short write to " + tmp_path);
  }
  if (FaultInjected(FaultPoint::kCkptFsync) || fsync(fileno(file)) != 0) {
    std::fclose(file);
    std::remove(tmp_path.c_str());
    return Status::Error("fsync failed for " + tmp_path);
  }
  std::fclose(file);
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Error("rename failed for " + final_path);
  }
  // Persist the rename itself: fsync the directory entry.
  const int dir_fd = open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    fsync(dir_fd);
    close(dir_fd);
  }
  return Status::Ok();
}

Status SnapshotStore::RewriteManifest() {
  std::string out = kManifestHeader;
  out.push_back('\n');
  std::uint32_t chain = 0;
  for (Entry& entry : entries_) {
    const std::string core = EntryCore(entry);
    chain = Crc32(chain, core.data(), core.size());
    entry.chain = chain;
    out += "snap " + core + " " + Hex32(chain) + "\n";
  }
  return WriteFileDurably(kManifestName, out);
}

void SnapshotStore::PruneToRetention() {
  while (entries_.size() > static_cast<std::size_t>(retain_)) {
    std::error_code ignore;
    fs::remove(PathFor(entries_.front().file), ignore);
    entries_.erase(entries_.begin());
  }
}

Status SnapshotStore::Save(const Snapshot& snapshot,
                           const RetryOptions& retry) {
  if (!ok_) return Status::Error("checkpoint dir unavailable: " + dir_);
  const std::string bytes = EncodeSnapshot(snapshot);
  Entry entry;
  entry.seq = next_seq_;
  entry.step = snapshot.step;
  char name[32];
  std::snprintf(name, sizeof(name), "snap-%08llu.gmrck",
                static_cast<unsigned long long>(entry.seq));
  entry.file = name;
  entry.file_crc = Crc32(0, bytes.data(), bytes.size());

  Status status = RetryWithBackoff(
      retry, [&] { return WriteFileDurably(entry.file, bytes); });
  if (!status.ok()) return status;

  // Simulated bit rot: flip one payload byte of the file that was just
  // durably written. The manifest keeps the good CRC, so LoadLatest must
  // detect the damage and fall back to the previous snapshot.
  if (FaultInjected(FaultPoint::kCkptCorrupt)) {
    std::FILE* file = std::fopen(PathFor(entry.file).c_str(), "r+b");
    if (file != nullptr) {
      std::fseek(file, static_cast<long>(bytes.size() / 2), SEEK_SET);
      const int c = std::fgetc(file);
      if (c != EOF) {
        std::fseek(file, -1, SEEK_CUR);
        std::fputc(c ^ 0x40, file);
      }
      std::fclose(file);
    }
  }

  next_seq_ += 1;
  entries_.push_back(std::move(entry));
  PruneToRetention();
  status = RetryWithBackoff(retry, [&] { return RewriteManifest(); });
  if (!status.ok()) {
    // The snapshot file exists but is not linked; drop it from the
    // in-memory chain so the store stays consistent with disk.
    entries_.pop_back();
    return status;
  }
  return Status::Ok();
}

Status SnapshotStore::LoadLatest(Snapshot* snapshot, int* fallbacks) {
  if (fallbacks != nullptr) *fallbacks = 0;
  if (!ok_) return Status::Error("checkpoint dir unavailable: " + dir_);
  if (entries_.empty()) return Status::Error("no snapshots in " + dir_);
  int skipped = 0;
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    std::string bytes;
    Status status = ReadWholeFile(PathFor(it->file), &bytes);
    if (status.ok() && FaultInjected(FaultPoint::kResumeTorn)) {
      bytes.resize(bytes.size() / 2);  // simulate a torn read/partial page
    }
    if (status.ok() &&
        Crc32(0, bytes.data(), bytes.size()) != it->file_crc) {
      status = Status::Error("file crc mismatch for " + it->file);
    }
    if (status.ok()) status = DecodeSnapshot(bytes, snapshot);
    if (status.ok()) {
      if (fallbacks != nullptr) *fallbacks = skipped;
      return Status::Ok();
    }
    ++skipped;
  }
  if (fallbacks != nullptr) *fallbacks = skipped;
  return Status::Error("every snapshot in " + dir_ + " failed validation");
}

Status SnapshotStore::DropNewerThan(std::uint64_t step) {
  if (!ok_) return Status::Error("checkpoint dir unavailable: " + dir_);
  std::vector<Entry> kept;
  for (Entry& entry : entries_) {
    if (entry.step <= step) {
      kept.push_back(std::move(entry));
    } else {
      std::error_code ignore;
      fs::remove(PathFor(entry.file), ignore);
    }
  }
  entries_ = std::move(kept);
  return RewriteManifest();
}

}  // namespace gmr::ckpt
