// Crash-safe file replacement: write-to-temp + fsync + rename.
//
// Every durable artifact this library writes — trace cache files, frontier
// points, checkpoint shards, checkpoint manifests, all framed by
// common/framed_file.h — must never be observable in a half-written state: a
// crash mid-write would otherwise leave a truncated file at the final path
// that a later run might try to load. AtomicFile gives the standard POSIX
// discipline: bytes go to a temporary file in the *same directory* (rename(2)
// is only atomic within a filesystem), the temp is fsync'd, then renamed over
// the destination, then the directory is fsync'd so the rename itself is
// durable. Until Commit() succeeds the destination path is untouched; on any
// failure (or if the AtomicFile is dropped uncommitted) the temp is unlinked.
#ifndef COLDSTART_COMMON_ATOMIC_FILE_H_
#define COLDSTART_COMMON_ATOMIC_FILE_H_

#include <cstdio>
#include <string>

namespace coldstart {

class AtomicFile {
 public:
  // Opens `<path>.tmp.<pid>` for writing in path's directory. Check ok() before
  // writing — a failed open (missing directory, permissions) is reported there,
  // not thrown.
  explicit AtomicFile(std::string path);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  bool ok() const { return file_ != nullptr; }

  // Appends `size` bytes; returns false (and poisons the file) on I/O error.
  bool Write(const void* data, size_t size);

  // Flushes, fsyncs, closes, renames over the destination, and fsyncs the
  // directory. Returns false if any step fails; the destination is then
  // untouched and the temp file has been removed. At most one Commit per file.
  bool Commit();

  // Discards the temp file without touching the destination. Safe to call at
  // any point; the destructor calls it for uncommitted files.
  void Abandon();

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  bool failed_ = false;
};

}  // namespace coldstart

#endif  // COLDSTART_COMMON_ATOMIC_FILE_H_
