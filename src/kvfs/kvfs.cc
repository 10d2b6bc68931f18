#include "src/kvfs/kvfs.h"

#include <algorithm>
#include <cassert>

namespace symphony {
namespace {

Status QuotaError(LipId owner) {
  return QuotaExceededError("kv page quota exceeded for lip " +
                            std::to_string(owner));
}

// Appends every record of `data` to `out`.
void CopyRecords(const KvFileData& data, std::vector<TokenRecord>& out) {
  for (uint64_t i = 0; i < data.length(); ++i) {
    out.push_back(*data.At(i));
  }
}

}  // namespace

Kvfs::Kvfs(KvfsOptions options)
    : options_(std::move(options)),
      pool_(options_.gpu_page_budget, options_.host_page_budget) {}

SimTime Kvfs::Now() {
  if (options_.clock) {
    return options_.clock();
  }
  return ++fallback_clock_;
}

FileId Kvfs::AllocateFileSlot(LipId owner) {
  FileId id;
  if (!free_file_slots_.empty()) {
    id = free_file_slots_.back();
    free_file_slots_.pop_back();
  } else {
    id = static_cast<FileId>(files_.size());
    files_.emplace_back();
  }
  FileEntry& entry = files_[id];
  uint32_t generation = entry.generation + 1;
  entry = FileEntry{};
  entry.generation = generation;
  entry.live = true;
  entry.owner = owner;
  entry.data.emplace(&pool_, owner);
  return id;
}

uint64_t Kvfs::OwnerPageRefs(LipId owner) const {
  return pool_.AccountPageRefs(owner);
}

uint64_t Kvfs::PageQuota(LipId owner) const {
  if (!page_quota_ || owner == kAdminLip) {
    return UINT64_MAX;
  }
  return page_quota_(owner);
}

void Kvfs::ReclaimIfOrphaned(FileId id) {
  FileEntry& entry = files_[id];
  if (!entry.live || !entry.unlinked || entry.open_count > 0) {
    return;
  }
  entry.data.reset();  // Releases all page references.
  entry.live = false;
  free_file_slots_.push_back(id);
}

bool Kvfs::MayRead(const FileEntry& file, LipId requester) const {
  if (requester == kAdminLip) {
    return true;
  }
  return requester == file.owner ? (file.mode & kOwnerRead) != 0
                                 : (file.mode & kOtherRead) != 0;
}

bool Kvfs::MayWrite(const FileEntry& file, LipId requester) const {
  if (requester == kAdminLip) {
    return true;
  }
  return requester == file.owner ? (file.mode & kOwnerWrite) != 0
                                 : (file.mode & kOtherWrite) != 0;
}

StatusOr<KvHandle> Kvfs::MakeHandle(FileId file, LipId requester, bool read,
                                    bool write) {
  uint32_t slot;
  if (!free_handle_slots_.empty()) {
    slot = free_handle_slots_.back();
    free_handle_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(handles_.size());
    handles_.emplace_back();
  }
  HandleEntry& entry = handles_[slot];
  uint32_t generation = entry.generation + 1;
  entry = HandleEntry{};
  entry.file = file;
  entry.requester = requester;
  entry.can_read = read;
  entry.can_write = write;
  entry.generation = generation;
  entry.live = true;
  ++files_[file].open_count;
  return KvHandle{slot, generation};
}

StatusOr<Kvfs::HandleEntry> Kvfs::ResolveHandle(KvHandle handle) const {
  if (handle.slot >= handles_.size()) {
    return InvalidArgumentError("bad kv handle");
  }
  const HandleEntry& entry = handles_[handle.slot];
  if (!entry.live || entry.generation != handle.generation) {
    return InvalidArgumentError("stale kv handle");
  }
  return entry;
}

StatusOr<KvHandle> Kvfs::Open(std::string_view path, const OpenOptions& options) {
  if (path.empty()) {
    return InvalidArgumentError("empty path");
  }
  if (options.requester == kNoLip) {
    return InvalidArgumentError("open requires a requester identity");
  }
  bool read = options.read;
  bool write = options.write;
  FileId id;
  auto it = names_.find(std::string(path));
  if (it == names_.end()) {
    if (!options.create) {
      return NotFoundError("no such kv file: " + std::string(path));
    }
    id = AllocateFileSlot(options.requester);
    FileEntry& entry = files_[id];
    entry.path = std::string(path);
    entry.mode = options.create_mode;
    names_.emplace(entry.path, id);
    read = write = true;
  } else {
    if (options.create && options.exclusive) {
      return AlreadyExistsError("kv file exists: " + std::string(path));
    }
    id = it->second;
    if (read && !MayRead(files_[id], options.requester)) {
      ++stats_.acl_denials;
      return PermissionDeniedError("read access denied: " + std::string(path));
    }
    if (write && !MayWrite(files_[id], options.requester)) {
      ++stats_.acl_denials;
      return PermissionDeniedError("write access denied: " + std::string(path));
    }
  }
  FileEntry& entry = files_[id];
  entry.last_access = Now();
  // Admin opens (sharing passes, introspection) don't count toward hotness.
  if (options.requester != kAdminLip) {
    ++entry.opens_total;
  }
  ++stats_.opens;
  return MakeHandle(id, options.requester, read, write);
}

StatusOr<KvHandle> Kvfs::NewFile(LipId owner,
                                 const std::function<Status(FileEntry&)>& fill) {
  FileId id = AllocateFileSlot(owner);
  FileEntry& file = files_[id];
  file.unlinked = true;  // Reclaimed when its last handle closes.
  file.last_access = Now();
  file.open_count = 1;
  Status st = fill ? fill(file) : Status::Ok();
  --file.open_count;
  if (!st.ok()) {
    ReclaimIfOrphaned(id);
    return st;
  }
  return MakeHandle(id, owner, /*read=*/true, /*write=*/true);
}

StatusOr<KvHandle> Kvfs::CreateAnonymous(LipId requester) {
  if (requester == kNoLip) {
    return InvalidArgumentError("create requires a requester identity");
  }
  ++stats_.opens;
  return NewFile(requester, nullptr);
}

Status Kvfs::Close(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  FileEntry& file = files_[entry.file];
  if (file.lock_holder == entry.requester) {
    // Dropping the last handle of the lock holder releases the lock. We keep
    // it simple: any close by the holder releases it.
    file.lock_holder = kNoLip;
  }
  handles_[handle.slot].live = false;
  free_handle_slots_.push_back(handle.slot);
  assert(file.open_count > 0);
  --file.open_count;
  ReclaimIfOrphaned(entry.file);
  return Status::Ok();
}

Status Kvfs::Remove(std::string_view path, LipId requester) {
  auto it = names_.find(std::string(path));
  if (it == names_.end()) {
    return NotFoundError("no such kv file: " + std::string(path));
  }
  FileEntry& entry = files_[it->second];
  if (requester != kAdminLip && requester != entry.owner &&
      !MayWrite(entry, requester)) {
    ++stats_.acl_denials;
    return PermissionDeniedError("remove denied: " + std::string(path));
  }
  entry.unlinked = true;
  entry.path.clear();
  FileId id = it->second;
  names_.erase(it);
  ReclaimIfOrphaned(id);
  return Status::Ok();
}

Status Kvfs::Link(KvHandle handle, std::string_view path) {
  if (path.empty()) {
    return InvalidArgumentError("empty path");
  }
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  FileEntry& file = files_[entry.file];
  if (entry.requester != kAdminLip && entry.requester != file.owner) {
    ++stats_.acl_denials;
    return PermissionDeniedError("link requires ownership");
  }
  if (names_.count(std::string(path)) > 0) {
    return AlreadyExistsError("kv file exists: " + std::string(path));
  }
  if (!file.path.empty()) {
    names_.erase(file.path);
  }
  file.path = std::string(path);
  file.unlinked = false;
  names_.emplace(std::string(path), entry.file);
  return Status::Ok();
}

bool Kvfs::Exists(std::string_view path) const {
  return names_.count(std::string(path)) > 0;
}

std::vector<std::string> Kvfs::List(std::string_view prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, id] : names_) {
    if (name.size() >= prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<KvHandle> Kvfs::Fork(KvHandle source, LipId requester) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry src, ResolveHandle(source));
  if (!src.can_read) {
    return PermissionDeniedError("fork requires a readable handle");
  }
  LipId owner = requester == kNoLip ? src.requester : requester;
  files_[src.file].last_access = Now();
  SYMPHONY_ASSIGN_OR_RETURN(KvHandle fork, NewFile(owner, [&](FileEntry& file) {
    SYMPHONY_RETURN_IF_ERROR(file.data->CloneFrom(*files_[src.file].data));
    return OwnerPageRefs(owner) > PageQuota(owner) ? QuotaError(owner)
                                                   : Status::Ok();
  }));
  ++stats_.forks;
  return fork;
}

StatusOr<KvHandle> Kvfs::Extract(KvHandle source, std::span<const uint64_t> indices,
                                 LipId requester) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry src, ResolveHandle(source));
  if (!src.can_read) {
    return PermissionDeniedError("extract requires a readable handle");
  }
  for (size_t i = 1; i < indices.size(); ++i) {
    if (indices[i] <= indices[i - 1]) {
      return InvalidArgumentError("extract indices must be strictly increasing");
    }
  }
  std::vector<TokenRecord> records;
  records.reserve(indices.size());
  for (uint64_t index : indices) {
    SYMPHONY_ASSIGN_OR_RETURN(TokenRecord rec, files_[src.file].data->At(index));
    records.push_back(rec);
  }
  LipId owner = requester == kNoLip ? src.requester : requester;
  SYMPHONY_ASSIGN_OR_RETURN(KvHandle out, NewFile(owner, [&](FileEntry& file) {
    return AppendAll(file, records, Tier::kGpu);
  }));
  files_[src.file].last_access = Now();
  ++stats_.extracts;
  return out;
}

StatusOr<KvHandle> Kvfs::Merge(std::span<const KvHandle> sources, LipId requester) {
  if (sources.empty()) {
    return InvalidArgumentError("merge requires at least one source");
  }
  std::vector<FileId> src_ids;
  LipId owner = requester;
  for (KvHandle h : sources) {
    SYMPHONY_ASSIGN_OR_RETURN(HandleEntry src, ResolveHandle(h));
    if (!src.can_read) {
      return PermissionDeniedError("merge requires readable handles");
    }
    if (owner == kNoLip) {
      owner = src.requester;
    }
    src_ids.push_back(src.file);
  }
  std::vector<TokenRecord> records;
  for (FileId id : src_ids) {
    CopyRecords(*files_[id].data, records);
  }
  SYMPHONY_ASSIGN_OR_RETURN(KvHandle out, NewFile(owner, [&](FileEntry& file) {
    return AppendAll(file, records, Tier::kGpu);
  }));
  for (FileId id : src_ids) {
    files_[id].last_access = Now();
  }
  ++stats_.merges;
  return out;
}

Status Kvfs::AppendAll(FileEntry& file, std::span<const TokenRecord> records,
                       Tier tier) {
  uint64_t original_length = file.data->length();
  uint64_t quota = PageQuota(file.owner);
  size_t checked_pages = SIZE_MAX;  // Forces a check after the first record.
  for (const TokenRecord& record : records) {
    Status st = file.data->Append(record, tier);
    while (st.code() == StatusCode::kResourceExhausted && tier == Tier::kGpu &&
           EvictOne()) {
      st = file.data->Append(record, tier);
    }
    // The owner's page refs change only when a record starts a page.
    if (st.ok() && file.data->pages().size() != checked_pages) {
      checked_pages = file.data->pages().size();
      if (OwnerPageRefs(file.owner) > quota) {
        st = QuotaError(file.owner);  // A hard per-tenant cap (§6).
      }
    }
    if (!st.ok()) {
      (void)file.data->Truncate(original_length);  // Roll back the span.
      return st;
    }
  }
  return Status::Ok();
}

Status Kvfs::AppendRecords(KvHandle handle, std::span<const TokenRecord> records,
                           Tier tier) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  if (!entry.can_write) {
    ++stats_.acl_denials;
    return PermissionDeniedError("append on read-only handle");
  }
  FileEntry& file = files_[entry.file];
  if (file.LockedAgainst(entry.requester)) {
    return FailedPreconditionError("file locked by another lip");
  }
  SYMPHONY_RETURN_IF_ERROR(AppendAll(file, records, tier));
  file.last_access = Now();
  return Status::Ok();
}

Status Kvfs::Append(KvHandle handle, std::span<const TokenRecord> records) {
  return AppendRecords(handle, records, Tier::kGpu);
}

Status Kvfs::ImportRecords(KvHandle handle,
                           std::span<const TokenRecord> records, Tier tier) {
  SYMPHONY_RETURN_IF_ERROR(AppendRecords(handle, records, tier));
  stats_.imported_tokens += records.size();
  return Status::Ok();
}

StatusOr<KvFileSnapshot> Kvfs::ExportSnapshot(KvHandle handle) const {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  if (!entry.can_read) {
    return PermissionDeniedError("snapshot export on write-only handle");
  }
  const FileEntry& file = files_[entry.file];
  KvFileSnapshot snapshot;
  snapshot.path = file.unlinked ? std::string() : file.path;
  snapshot.mode = file.mode;
  snapshot.records.reserve(file.data->length());
  CopyRecords(*file.data, snapshot.records);
  ++stats_.snapshot_exports;
  return snapshot;
}

StatusOr<KvHandle> Kvfs::ImportSnapshot(const KvFileSnapshot& snapshot,
                                        LipId requester, Tier tier) {
  SYMPHONY_ASSIGN_OR_RETURN(KvHandle handle, CreateAnonymous(requester));
  Status st = ImportRecords(handle, snapshot.records, tier);
  if (!st.ok()) {
    (void)Close(handle);
    return st;
  }
  files_[handles_[handle.slot].file].mode = snapshot.mode;
  ++stats_.snapshot_imports;
  return handle;
}

StatusOr<TokenRecord> Kvfs::Read(KvHandle handle, uint64_t index) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  if (!entry.can_read) {
    ++stats_.acl_denials;
    return PermissionDeniedError("read on write-only handle");
  }
  FileEntry& file = files_[entry.file];
  file.last_access = Now();
  return file.data->At(index);
}

StatusOr<uint64_t> Kvfs::Length(KvHandle handle) const {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  return files_[entry.file].data->length();
}

StatusOr<HiddenState> Kvfs::TailState(KvHandle handle) const {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  return files_[entry.file].data->TailState();
}

Status Kvfs::Truncate(KvHandle handle, uint64_t new_length) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  if (!entry.can_write) {
    ++stats_.acl_denials;
    return PermissionDeniedError("truncate on read-only handle");
  }
  FileEntry& file = files_[entry.file];
  if (file.LockedAgainst(entry.requester)) {
    return FailedPreconditionError("file locked by another lip");
  }
  file.last_access = Now();
  Status st = file.data->Truncate(new_length);
  // A cut inside a shared page copies that page in its own tier; when the
  // GPU tier is full, evict and retry as AppendAll does.
  while (st.code() == StatusCode::kResourceExhausted &&
         pool_.tier(file.data->pages()[(new_length - 1) / kPageTokens]) ==
             Tier::kGpu &&
         EvictOne()) {
    st = file.data->Truncate(new_length);
  }
  return st;
}

Status Kvfs::Lock(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  FileEntry& file = files_[entry.file];
  if (file.LockedAgainst(entry.requester)) {
    return FailedPreconditionError("file already locked");
  }
  file.lock_holder = entry.requester;
  return Status::Ok();
}

Status Kvfs::Unlock(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  FileEntry& file = files_[entry.file];
  if (file.lock_holder != entry.requester) {
    return FailedPreconditionError("not the lock holder");
  }
  file.lock_holder = kNoLip;
  return Status::Ok();
}

Status Kvfs::Pin(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  files_[entry.file].pinned = true;
  return Status::Ok();
}

Status Kvfs::Unpin(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  files_[entry.file].pinned = false;
  return Status::Ok();
}

Status Kvfs::SetMode(KvHandle handle, uint8_t mode) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  FileEntry& file = files_[entry.file];
  if (entry.requester != kAdminLip && entry.requester != file.owner) {
    ++stats_.acl_denials;
    return PermissionDeniedError("chmod requires ownership");
  }
  file.mode = mode;
  return Status::Ok();
}

Status Kvfs::MovePages(FileEntry& file, Tier to) {
  if (file.data->PagesInTier(to == Tier::kGpu ? Tier::kHost : Tier::kGpu) == 0) {
    return Status::Ok();
  }
  if (to == Tier::kGpu) {
    SYMPHONY_RETURN_IF_ERROR(ReserveGpuPages(file));
  }
  for (PageId page : file.data->pages()) {
    if (pool_.tier(page) == to) {
      continue;
    }
    SYMPHONY_RETURN_IF_ERROR(pool_.MoveToTier(page, to));
    pending_transfer_bytes_ += bytes_per_page_;
    ++(to == Tier::kGpu ? stats_.restored_pages : stats_.offloaded_pages);
  }
  return Status::Ok();
}

Status Kvfs::OffloadToHost(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  return MovePages(files_[entry.file], Tier::kHost);
}

Status Kvfs::RestoreToGpu(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  FileEntry& file = files_[entry.file];
  SYMPHONY_RETURN_IF_ERROR(MovePages(file, Tier::kGpu));
  file.last_access = Now();
  return Status::Ok();
}

Status Kvfs::ReserveGpuPages(const FileEntry& file) {
  while (pool_.gpu_pages_free() < file.data->PagesInTier(Tier::kHost)) {
    if (!EvictOne()) {
      return ResourceExhaustedError("cannot reserve gpu pages");
    }
  }
  return Status::Ok();
}

void Kvfs::OffloadOwnedBy(LipId owner) {
  for (FileEntry& file : files_) {
    if (file.live && file.owner == owner && !file.pinned &&
        !MovePages(file, Tier::kHost).ok()) {
      return;  // Host tier full; keep the rest on-device.
    }
  }
}

uint64_t Kvfs::TakePendingTransferBytes() {
  uint64_t bytes = pending_transfer_bytes_;
  pending_transfer_bytes_ = 0;
  return bytes;
}

KvFileInfo Kvfs::InfoFor(FileId id) const {
  const FileEntry& entry = files_[id];
  KvFileInfo info;
  info.id = id;
  info.path = entry.path;
  info.owner = entry.owner;
  info.mode = entry.mode;
  info.length = entry.data->length();
  info.gpu_pages = entry.data->PagesInTier(Tier::kGpu);
  info.host_pages = entry.data->PagesInTier(Tier::kHost);
  info.pinned = entry.pinned;
  info.locked = entry.lock_holder != kNoLip;
  info.open_count = entry.open_count;
  info.opens_total = entry.opens_total;
  info.last_access = entry.last_access;
  return info;
}

bool Kvfs::EvictOne() {
  if (options_.eviction == EvictionMode::kNone) {
    return false;
  }
  // The eligible file with GPU pages and the oldest access; ties go to the
  // lowest id.
  FileId victim = kInvalidFile;
  for (FileId id = 0; id < files_.size(); ++id) {
    const FileEntry& file = files_[id];
    if (file.live && !file.pinned && file.open_count == 0 &&
        file.lock_holder == kNoLip &&
        (victim == kInvalidFile ||
         file.last_access < files_[victim].last_access) &&
        file.data->PagesInTier(Tier::kGpu) > 0) {
      victim = id;
    }
  }
  if (victim == kInvalidFile) {
    return false;
  }
  FileEntry& file = files_[victim];
  ++stats_.evicted_files;
  if (options_.eviction == EvictionMode::kOffloadLru &&
      MovePages(file, Tier::kHost).ok()) {
    return true;
  }
  // Drop (also when the host tier is full): release pages and unlink so
  // lookups miss from now on.
  file.data->ReleaseAll();
  if (!file.path.empty()) {
    names_.erase(file.path);
    file.path.clear();
  }
  file.unlinked = true;
  ++stats_.dropped_files;
  ReclaimIfOrphaned(victim);
  return true;
}

StatusOr<KvFileInfo> Kvfs::Stat(KvHandle handle) const {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry entry, ResolveHandle(handle));
  return InfoFor(entry.file);
}

StatusOr<KvFileInfo> Kvfs::StatPath(std::string_view path) const {
  auto it = names_.find(std::string(path));
  if (it == names_.end()) {
    return NotFoundError("no such kv file: " + std::string(path));
  }
  return InfoFor(it->second);
}

std::vector<KvFileInfo> Kvfs::ListAll() const {
  std::vector<KvFileInfo> out;
  for (FileId id = 0; id < files_.size(); ++id) {
    if (files_[id].live) {
      out.push_back(InfoFor(id));
    }
  }
  return out;
}

}  // namespace symphony
