#include "relational/relation.h"

#include <algorithm>

namespace setrec {

Status Relation::Insert(Tuple tuple) {
  if (tuple.arity() != scheme_.arity()) {
    return Status::InvalidArgument("tuple arity does not match scheme");
  }
  for (std::size_t i = 0; i < tuple.arity(); ++i) {
    if (tuple.at(i).class_id() != scheme_.attribute(i).domain) {
      return Status::InvalidArgument(
          "tuple value violates attribute domain at position " +
          std::to_string(i) + " (attribute " + scheme_.attribute(i).name +
          ")");
    }
  }
  tuples_.insert(std::move(tuple));
  InvalidateSortedCache();
  return Status::OK();
}

std::vector<const Tuple*> Relation::SortedTuples() const {
  std::lock_guard<std::mutex> lock(sorted_mu_);
  if (!sorted_valid_) {
    sorted_.clear();
    sorted_.reserve(tuples_.size());
    for (const Tuple& t : tuples_) sorted_.push_back(&t);
    std::sort(sorted_.begin(), sorted_.end(),
              [](const Tuple* a, const Tuple* b) { return *a < *b; });
    sorted_valid_ = true;
  }
  return sorted_;
}

void Database::Put(std::string name, Relation relation) {
  relations_.insert_or_assign(
      std::move(name), std::make_shared<const Relation>(std::move(relation)));
}

bool Database::Has(std::string_view name) const {
  return relations_.find(name) != relations_.end();
}

Result<const Relation*> Database::Find(std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named " + std::string(name));
  }
  return it->second.get();
}

Result<std::shared_ptr<const Relation>> Database::FindShared(
    std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named " + std::string(name));
  }
  return it->second;
}

std::vector<std::string> Database::Names() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) out.push_back(name);
  return out;
}

bool operator==(const Database& a, const Database& b) {
  if (a.relations_.size() != b.relations_.size()) return false;
  auto ita = a.relations_.begin();
  auto itb = b.relations_.begin();
  for (; ita != a.relations_.end(); ++ita, ++itb) {
    if (ita->first != itb->first) return false;
    if (ita->second == itb->second) continue;  // shared storage
    if (!(*ita->second == *itb->second)) return false;
  }
  return true;
}

}  // namespace setrec
