#include "src/kvfs/page_pool.h"

#include <algorithm>
#include <cassert>

namespace symphony {

PagePool::PagePool(uint64_t gpu_page_budget, uint64_t host_page_budget)
    : gpu_budget_(gpu_page_budget), host_budget_(host_page_budget) {
  pages_.reserve(1024);
}

PagePool::PageMeta& PagePool::Meta(PageId id) {
  assert(id < pages_.size());
  assert(!pages_[id].holders.empty());  // Live.
  return pages_[id];
}

const PagePool::PageMeta& PagePool::Meta(PageId id) const {
  assert(id < pages_.size());
  assert(!pages_[id].holders.empty());  // Live.
  return pages_[id];
}

uint64_t& PagePool::TierUsage(Tier tier) {
  return tier == Tier::kGpu ? stats_.gpu_pages_used : stats_.host_pages_used;
}

void PagePool::AddHolder(PageMeta& meta, HolderId holder) {
  assert(holder < holders_.size());
  meta.holders.push_back(holder);
  HolderMeta& h = holders_[holder];
  ++h.pages[static_cast<size_t>(meta.tier)];
  ++*h.account_refs;
}

void PagePool::RemoveHolder(PageMeta& meta, HolderId holder) {
  auto it = std::find(meta.holders.begin(), meta.holders.end(), holder);
  assert(it != meta.holders.end());
  *it = meta.holders.back();
  meta.holders.pop_back();
  HolderMeta& h = holders_[holder];
  --h.pages[static_cast<size_t>(meta.tier)];
  --*h.account_refs;
}

HolderId PagePool::NewHolder(LipId account) {
  HolderId holder;
  if (!free_holders_.empty()) {
    holder = free_holders_.back();
    free_holders_.pop_back();
  } else {
    holder = static_cast<HolderId>(holders_.size());
    holders_.emplace_back();
  }
  holders_[holder].account_refs = &account_refs_[account];
  return holder;
}

uint64_t PagePool::AccountPageRefs(LipId account) const {
  auto it = account_refs_.find(account);
  return it == account_refs_.end() ? 0 : it->second;
}

void PagePool::FreeHolder(HolderId holder) {
  assert(holder < holders_.size());
  assert(HolderPages(holder, Tier::kGpu) == 0);
  assert(HolderPages(holder, Tier::kHost) == 0);
  free_holders_.push_back(holder);
}

StatusOr<PageId> PagePool::Allocate(Tier tier, HolderId holder) {
  uint64_t budget = tier == Tier::kGpu ? gpu_budget_ : host_budget_;
  if (TierUsage(tier) >= budget) {
    return ResourceExhaustedError(tier == Tier::kGpu ? "gpu page budget exhausted"
                                                     : "host page budget exhausted");
  }
  PageId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<PageId>(pages_.size());
    pages_.emplace_back();
  }
  PageMeta& meta = pages_[id];
  meta.records = {};
  meta.used = 0;
  meta.tier = tier;
  AddHolder(meta, holder);
  ++TierUsage(tier);
  ++stats_.allocations;
  return id;
}

void PagePool::Ref(PageId id, HolderId holder) { AddHolder(Meta(id), holder); }

void PagePool::Unref(PageId id, HolderId holder) {
  PageMeta& meta = Meta(id);
  RemoveHolder(meta, holder);
  if (meta.holders.empty()) {
    --TierUsage(meta.tier);
    free_list_.push_back(id);
    ++stats_.frees;
  }
}

StatusOr<PageId> PagePool::EnsureExclusive(PageId id, HolderId holder) {
  if (refcount(id) == 1) {
    return id;
  }
  SYMPHONY_ASSIGN_OR_RETURN(PageId copy, Allocate(Meta(id).tier, holder));
  // Fetched after Allocate, which may have reallocated pages_.
  PageMeta& copy_meta = pages_[copy];
  PageMeta& src_meta = pages_[id];
  copy_meta.records = src_meta.records;
  copy_meta.used = src_meta.used;
  RemoveHolder(src_meta, holder);
  ++stats_.cow_copies;
  return copy;
}

Status PagePool::MoveToTier(PageId id, Tier tier) {
  PageMeta& meta = Meta(id);
  if (meta.tier == tier) {
    return Status::Ok();
  }
  uint64_t budget = tier == Tier::kGpu ? gpu_budget_ : host_budget_;
  if (TierUsage(tier) >= budget) {
    return ResourceExhaustedError("target tier full");
  }
  for (HolderId holder : meta.holders) {
    std::array<uint64_t, 2>& pages = holders_[holder].pages;
    --pages[static_cast<size_t>(meta.tier)];
    ++pages[static_cast<size_t>(tier)];
  }
  --TierUsage(meta.tier);
  meta.tier = tier;
  ++TierUsage(tier);
  ++stats_.tier_moves;
  return Status::Ok();
}

TokenRecord* PagePool::MutableRecords(PageId id) { return Meta(id).records.data(); }
const TokenRecord* PagePool::Records(PageId id) const { return Meta(id).records.data(); }

uint32_t PagePool::used(PageId id) const { return Meta(id).used; }
void PagePool::set_used(PageId id, uint32_t used) {
  assert(used <= kPageTokens);
  Meta(id).used = used;
}
uint32_t PagePool::refcount(PageId id) const {
  return static_cast<uint32_t>(Meta(id).holders.size());
}
Tier PagePool::tier(PageId id) const { return Meta(id).tier; }

}  // namespace symphony
