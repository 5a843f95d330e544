#include "common/framed_file.h"

#include <sys/stat.h>

#include <cstdio>
#include <memory>

#include "common/atomic_file.h"
#include "common/byte_serde.h"
#include "common/crc32.h"

namespace coldstart {

namespace {

constexpr size_t kHeaderBytes = 8 + 8 + 4;  // Magic, payload size, CRC32.

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

bool WriteFramedFile(const std::string& path, uint64_t magic,
                     std::string_view payload) {
  ByteWriter header;
  header.U64(magic);
  header.U64(payload.size());
  header.U32(Crc32(payload.data(), payload.size()));
  AtomicFile file(path);
  if (!file.ok()) {
    return false;
  }
  file.Write(header.data().data(), header.data().size());
  file.Write(payload.data(), payload.size());
  return file.Commit();
}

FrameStatus ReadFramedFile(const std::string& path, uint64_t magic,
                           std::string* payload, const char** why) {
  const std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return FrameStatus::kMissing;
  }
  const auto corrupt = [why](const char* reason) {
    *why = reason;
    return FrameStatus::kCorrupt;
  };
  struct stat st {};
  if (::fstat(fileno(f.get()), &st) != 0) {
    return corrupt("read error");
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  char header_bytes[kHeaderBytes];
  if (file_size < kHeaderBytes ||
      std::fread(header_bytes, 1, kHeaderBytes, f.get()) != kHeaderBytes) {
    return corrupt("truncated header");
  }
  ByteReader header(std::string_view(header_bytes, kHeaderBytes));
  if (header.U64() != magic) {
    return corrupt("bad magic or version");
  }
  const uint64_t size = header.U64();
  const uint32_t crc = header.U32();
  const uint64_t payload_size = file_size - kHeaderBytes;
  if (size != payload_size) {
    return corrupt(size > payload_size ? "truncated payload" : "trailing bytes");
  }
  payload->resize(payload_size);
  if (std::fread(payload->data(), 1, payload_size, f.get()) != payload_size) {
    return corrupt("read error");
  }
  if (Crc32(payload->data(), payload->size()) != crc) {
    return corrupt("payload CRC mismatch");
  }
  return FrameStatus::kOk;
}

}  // namespace coldstart
