// A KV cache file: an append-mostly sequence of TokenRecords stored in
// refcounted pages. KvFileData is the in-"kernel" representation; LIPs only
// see KvHandles through the Kvfs API.
//
// Sharing model: Fork() snapshots the page list and bumps refcounts (O(pages),
// no tensor copies). Any mutation of a shared page (append into a partial
// tail page, truncate) first goes through copy-on-write.
#ifndef SRC_KVFS_KV_FILE_H_
#define SRC_KVFS_KV_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/page_pool.h"
#include "src/kvfs/types.h"
#include "src/sim/time.h"

namespace symphony {

class KvFileData {
 public:
  // `pool` must outlive the file. The file is one holder of the pool, and
  // its page references count against `account` (the owning LIP).
  explicit KvFileData(PagePool* pool, LipId account = kNoLip)
      : pool_(pool), holder_(pool->NewHolder(account)) {}

  ~KvFileData();
  KvFileData(const KvFileData&) = delete;
  KvFileData& operator=(const KvFileData&) = delete;
  // The holder id moves with the pages, so residency survives a move (the
  // file table growing). A moved-from file may only be destroyed or assigned.
  KvFileData(KvFileData&& other) noexcept;
  KvFileData& operator=(KvFileData&& other) noexcept;

  uint64_t length() const { return length_; }
  bool empty() const { return length_ == 0; }
  const std::vector<PageId>& pages() const { return pages_; }

  // Appends one record; allocates pages in `tier` as needed.
  Status Append(const TokenRecord& record, Tier tier = Tier::kGpu);

  // Random access. Index must be < length().
  StatusOr<TokenRecord> At(uint64_t index) const;

  // Hidden state after the last token. Fails on an empty file (the caller
  // supplies the model's initial state in that case).
  StatusOr<HiddenState> TailState() const;

  // Drops tokens beyond new_length.
  Status Truncate(uint64_t new_length);

  // Makes this file share all of `other`'s pages (this must be empty).
  Status CloneFrom(const KvFileData& other);

  // Releases every page reference; the file becomes empty.
  void ReleaseAll();

  // Number of this file's pages currently resident in `tier`. O(1): the pool
  // keeps the count, including moves made through a copy-on-write sibling.
  uint64_t PagesInTier(Tier tier) const { return pool_->HolderPages(holder_, tier); }

 private:
  // Copy-on-write: ensures pages_[page_index] is exclusively owned.
  Status MakeExclusive(size_t page_index);

  PagePool* pool_;
  HolderId holder_;
  std::vector<PageId> pages_;
  uint64_t length_ = 0;
};

}  // namespace symphony

#endif  // SRC_KVFS_KV_FILE_H_
