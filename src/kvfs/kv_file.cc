#include "src/kvfs/kv_file.h"

#include <cassert>
#include <utility>

namespace symphony {

KvFileData::~KvFileData() {
  if (holder_ != kNoHolder) {
    ReleaseAll();
    pool_->FreeHolder(holder_);
  }
}

KvFileData::KvFileData(KvFileData&& other) noexcept
    : pool_(other.pool_),
      holder_(std::exchange(other.holder_, kNoHolder)),
      pages_(std::move(other.pages_)),
      length_(std::exchange(other.length_, 0)) {
  other.pages_.clear();
}

KvFileData& KvFileData::operator=(KvFileData&& other) noexcept {
  if (this != &other) {
    ReleaseAll();
    // Trade holder ids: ours now holds nothing, so `other` stays usable.
    std::swap(pool_, other.pool_);
    std::swap(holder_, other.holder_);
    pages_ = std::move(other.pages_);
    length_ = std::exchange(other.length_, 0);
    other.pages_.clear();
  }
  return *this;
}

Status KvFileData::MakeExclusive(size_t page_index) {
  assert(page_index < pages_.size());
  SYMPHONY_ASSIGN_OR_RETURN(PageId exclusive,
                            pool_->EnsureExclusive(pages_[page_index], holder_));
  pages_[page_index] = exclusive;
  return Status::Ok();
}

Status KvFileData::Append(const TokenRecord& record, Tier tier) {
  uint32_t offset = static_cast<uint32_t>(length_ % kPageTokens);
  if (offset == 0) {
    // Need a fresh page.
    SYMPHONY_ASSIGN_OR_RETURN(PageId page, pool_->Allocate(tier, holder_));
    pages_.push_back(page);
  } else {
    SYMPHONY_RETURN_IF_ERROR(MakeExclusive(pages_.size() - 1));
  }
  PageId tail = pages_.back();
  pool_->MutableRecords(tail)[offset] = record;
  pool_->set_used(tail, offset + 1);
  ++length_;
  return Status::Ok();
}

StatusOr<TokenRecord> KvFileData::At(uint64_t index) const {
  if (index >= length_) {
    return OutOfRangeError("token index beyond file length");
  }
  PageId page = pages_[index / kPageTokens];
  return pool_->Records(page)[index % kPageTokens];
}

StatusOr<HiddenState> KvFileData::TailState() const {
  if (length_ == 0) {
    return FailedPreconditionError("empty kv file has no tail state");
  }
  SYMPHONY_ASSIGN_OR_RETURN(TokenRecord rec, At(length_ - 1));
  return rec.state;
}

Status KvFileData::Truncate(uint64_t new_length) {
  if (new_length > length_) {
    return OutOfRangeError("truncate beyond file length");
  }
  if (new_length == length_) {
    return Status::Ok();
  }
  size_t keep_pages = static_cast<size_t>((new_length + kPageTokens - 1) / kPageTokens);
  uint32_t tail_used = static_cast<uint32_t>(new_length % kPageTokens);
  if (tail_used != 0) {
    // Shrinking `used` on a shared page would corrupt siblings: COW the kept
    // tail first, so a failed copy leaves the file untouched.
    SYMPHONY_RETURN_IF_ERROR(MakeExclusive(keep_pages - 1));
  }
  while (pages_.size() > keep_pages) {
    pool_->Unref(pages_.back(), holder_);
    pages_.pop_back();
  }
  length_ = new_length;
  if (tail_used != 0) {
    pool_->set_used(pages_.back(), tail_used);
  }
  return Status::Ok();
}

Status KvFileData::CloneFrom(const KvFileData& other) {
  if (!empty()) {
    return FailedPreconditionError("clone target must be empty");
  }
  if (pool_ != other.pool_) {
    return InvalidArgumentError("clone across page pools");
  }
  pages_ = other.pages_;
  length_ = other.length_;
  for (PageId page : pages_) {
    pool_->Ref(page, holder_);
  }
  return Status::Ok();
}

void KvFileData::ReleaseAll() {
  for (PageId page : pages_) {
    pool_->Unref(page, holder_);
  }
  pages_.clear();
  length_ = 0;
}

}  // namespace symphony
