#include "common/framed_file.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstring>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/crc32.h"

namespace coldstart {

namespace {

// Magic, payload size and CRC32, at these offsets.
constexpr size_t kMagicAt = 0;
constexpr size_t kSizeAt = 8;
constexpr size_t kCrcAt = 16;
constexpr size_t kHeaderBytes = 20;

// Reads go through the CRC in pieces of this size, each still in cache when
// the CRC reaches it.
constexpr size_t kReadChunk = size_t{1} << 20;

}  // namespace

bool WriteFramedFile(const std::string& path, uint64_t magic,
                     const std::vector<std::string_view>& spans) {
  uint64_t size = 0;
  uint32_t crc = 0;
  for (const std::string_view span : spans) {
    size += span.size();
    crc = Crc32(span.data(), span.size(), crc);
  }
  char header[kHeaderBytes];
  std::memcpy(header + kMagicAt, &magic, sizeof(magic));
  std::memcpy(header + kSizeAt, &size, sizeof(size));
  std::memcpy(header + kCrcAt, &crc, sizeof(crc));
  AtomicFile file(path);
  if (!file.ok()) {
    return false;
  }
  file.Write(header, sizeof(header));
  for (const std::string_view span : spans) {
    file.Write(span.data(), span.size());
  }
  return file.Commit();
}

FrameStatus FrameReader::Open(const std::string& path, uint64_t magic,
                              const char** why) {
  file_.reset(std::fopen(path.c_str(), "rb"));
  if (file_ == nullptr) {
    return FrameStatus::kMissing;
  }
  const auto corrupt = [why](const char* reason) {
    *why = reason;
    return FrameStatus::kCorrupt;
  };
  struct stat st {};
  if (::fstat(fileno(file_.get()), &st) != 0) {
    return corrupt("read error");
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  char header[kHeaderBytes];
  if (file_size < kHeaderBytes ||
      std::fread(header, 1, kHeaderBytes, file_.get()) != kHeaderBytes) {
    return corrupt("truncated header");
  }
  uint64_t file_magic = 0;
  std::memcpy(&file_magic, header + kMagicAt, sizeof(file_magic));
  if (file_magic != magic) {
    return corrupt("bad magic or version");
  }
  uint64_t size = 0;
  std::memcpy(&size, header + kSizeAt, sizeof(size));
  std::memcpy(&expected_crc_, header + kCrcAt, sizeof(expected_crc_));
  const uint64_t payload_size = file_size - kHeaderBytes;
  if (size != payload_size) {
    return corrupt(size > payload_size ? "truncated payload" : "trailing bytes");
  }
  remaining_ = payload_size;
  crc_ = 0;
  read_error_ = false;
  return FrameStatus::kOk;
}

void FrameReader::Read(void* out, size_t size) {
  if (size > remaining_) {
    COLDSTART_CHECK(Damaged() && "read past the end of an intact frame");
    std::memset(out, 0, size);
    return;
  }
  char* p = static_cast<char*>(out);
  while (size > 0) {
    const size_t chunk = std::min(size, kReadChunk);
    if (std::fread(p, 1, chunk, file_.get()) != chunk) {
      read_error_ = true;
      std::memset(p, 0, size);
      remaining_ = 0;
      return;
    }
    crc_ = Crc32(p, chunk, crc_);
    p += chunk;
    size -= chunk;
    remaining_ -= chunk;
  }
}

bool FrameReader::Damaged() {
  char buf[64 * 1024];
  while (remaining_ > 0) {  // A read error ends the payload, too.
    Read(buf, static_cast<size_t>(std::min<uint64_t>(remaining_, sizeof(buf))));
  }
  return read_error_ || crc_ != expected_crc_;
}

FrameStatus FrameReader::Finish(const char** why) {
  const bool unread = remaining_ > 0;
  if (Damaged()) {
    *why = read_error_ ? "read error" : "payload CRC mismatch";
    return FrameStatus::kCorrupt;
  }
  if (unread) {
    *why = "trailing bytes";
    return FrameStatus::kCorrupt;
  }
  return FrameStatus::kOk;
}

FrameStatus ReadFramedFile(const std::string& path, uint64_t magic,
                           std::string* payload, const char** why) {
  FrameReader reader;
  const FrameStatus status = reader.Open(path, magic, why);
  if (status != FrameStatus::kOk) {
    return status;
  }
  payload->resize(reader.Remaining());
  reader.Read(payload->data(), payload->size());
  return reader.Finish(why);
}

}  // namespace coldstart
