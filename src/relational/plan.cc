#include "relational/plan.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

namespace setrec {

namespace {

bool IsSelection(const Expr& e) {
  return e.op() == Expr::Op::kSelectEq || e.op() == Expr::Op::kSelectNeq;
}

bool IsGuardShaped(const Expr& e) {
  return e.op() == Expr::Op::kProject && e.projection().empty();
}

/// Whether the compiled vectorized backend lowers `kind`: every operator
/// today. An operator added interpreter-first returns false here until its
/// lowering lands, and plans containing it stay on the interpreter.
bool LowersToVectorized(Plan::Kind kind) {
  switch (kind) {
    case Plan::Kind::kScan:
    case Plan::Kind::kUnion:
    case Plan::Kind::kDifference:
    case Plan::Kind::kProduct:
    case Plan::Kind::kFilter:
    case Plan::Kind::kProject:
    case Plan::Kind::kRename:
    case Plan::Kind::kJoin:
      return true;
  }
  return false;
}

Result<RelationScheme> ProductScheme(const RelationScheme& l,
                                     const RelationScheme& r) {
  std::vector<Attribute> attrs = l.attributes();
  for (const Attribute& a : r.attributes()) {
    if (l.HasAttribute(a.name)) {
      return Status::InvalidArgument("product operands share attribute name " +
                                     a.name + "; rename first");
    }
    attrs.push_back(a);
  }
  return RelationScheme::Make(std::move(attrs));
}

/// Resolves σ node `sel` against `scheme` (global column indices).
Result<Plan::Cond> ResolveCond(const Expr& sel, const RelationScheme& scheme) {
  SETREC_ASSIGN_OR_RETURN(std::size_t ia, scheme.IndexOf(sel.attr_a()));
  SETREC_ASSIGN_OR_RETURN(std::size_t ib, scheme.IndexOf(sel.attr_b()));
  if (scheme.attribute(ia).domain != scheme.attribute(ib).domain) {
    return Status::InvalidArgument(
        "selection compares attributes of different domains: " +
        sel.attr_a() + " vs " + sel.attr_b());
  }
  Plan::Cond cond;
  cond.origin = &sel;
  cond.equal = sel.op() == Expr::Op::kSelectEq;
  cond.ia = ia;
  cond.ib = ib;
  return cond;
}

}  // namespace

class Plan::Builder {
 public:
  Builder(const Catalog* catalog, const Database* database)
      : catalog_(catalog), database_(database) {}

  Result<Plan> Run(const Expr& root) {
    SETREC_RETURN_IF_ERROR(Add(root).status());
    for (const Node& n : plan_.nodes_) {
      if (n.kind == Kind::kScan) {
        plan_.base_relations_.push_back(n.origin->relation_name());
      }
      plan_.vectorizable_ = plan_.vectorizable_ && LowersToVectorized(n.kind);
    }
    std::vector<std::string>& names = plan_.base_relations_;
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return std::move(plan_);
  }

 private:
  Result<const RelationScheme*> Lookup(const std::string& name) const {
    if (catalog_ != nullptr) return catalog_->Find(name);
    SETREC_ASSIGN_OR_RETURN(const Relation* rel, database_->Find(name));
    return &rel->scheme();
  }

  const RelationScheme& SchemeOf(std::size_t i) const {
    return plan_.nodes_[i].scheme;
  }

  std::size_t Push(Node node) {
    const std::size_t index = plan_.nodes_.size();
    memo_.emplace(node.origin, index);
    plan_.nodes_.push_back(std::move(node));
    return index;
  }

  /// Post-order, left before right, checking each operator after its
  /// inputs: the order InferScheme reports the first type error in.
  Result<std::size_t> Add(const Expr& e) {
    auto it = memo_.find(&e);
    if (it != memo_.end()) return it->second;
    Node node;
    node.origin = &e;
    switch (e.op()) {
      case Expr::Op::kRelation: {
        SETREC_ASSIGN_OR_RETURN(const RelationScheme* scheme,
                                Lookup(e.relation_name()));
        node.kind = Kind::kScan;
        node.scheme = *scheme;
        break;
      }
      case Expr::Op::kUnion:
      case Expr::Op::kDifference: {
        SETREC_ASSIGN_OR_RETURN(node.left, Add(*e.left()));
        SETREC_ASSIGN_OR_RETURN(node.right, Add(*e.right()));
        if (!(SchemeOf(node.left) == SchemeOf(node.right))) {
          return Status::InvalidArgument(
              "union/difference operands must have identical schemes");
        }
        node.kind = e.op() == Expr::Op::kUnion ? Kind::kUnion
                                               : Kind::kDifference;
        node.scheme = SchemeOf(node.left);
        break;
      }
      case Expr::Op::kProduct: {
        SETREC_ASSIGN_OR_RETURN(node.left, Add(*e.left()));
        SETREC_ASSIGN_OR_RETURN(node.right, Add(*e.right()));
        SETREC_ASSIGN_OR_RETURN(
            node.scheme,
            ProductScheme(SchemeOf(node.left), SchemeOf(node.right)));
        node.kind = Kind::kProduct;
        node.guard = IsGuardShaped(*e.left())    ? Guard::kLeft
                     : IsGuardShaped(*e.right()) ? Guard::kRight
                                                 : Guard::kNone;
        break;
      }
      case Expr::Op::kSelectEq:
      case Expr::Op::kSelectNeq: {
        const Expr* bottom = e.child().get();
        while (IsSelection(*bottom)) bottom = bottom->child().get();
        if (bottom->op() == Expr::Op::kProduct) return AddJoin(e, *bottom);
        SETREC_ASSIGN_OR_RETURN(node.left, Add(*e.child()));
        node.kind = Kind::kFilter;
        node.scheme = SchemeOf(node.left);
        SETREC_ASSIGN_OR_RETURN(node.filter, ResolveCond(e, node.scheme));
        break;
      }
      case Expr::Op::kProject: {
        SETREC_ASSIGN_OR_RETURN(node.left, Add(*e.child()));
        const RelationScheme& in = SchemeOf(node.left);
        std::vector<Attribute> attrs;
        std::set<std::string> seen;
        for (const std::string& name : e.projection()) {
          if (!seen.insert(name).second) {
            return Status::InvalidArgument("duplicate projection attribute " +
                                           name);
          }
          SETREC_ASSIGN_OR_RETURN(std::size_t i, in.IndexOf(name));
          node.columns.push_back(i);
          attrs.push_back(in.attribute(i));
        }
        node.kind = Kind::kProject;
        SETREC_ASSIGN_OR_RETURN(node.scheme,
                                RelationScheme::Make(std::move(attrs)));
        break;
      }
      case Expr::Op::kRename: {
        SETREC_ASSIGN_OR_RETURN(node.left, Add(*e.child()));
        const RelationScheme& in = SchemeOf(node.left);
        SETREC_ASSIGN_OR_RETURN(std::size_t i, in.IndexOf(e.rename_from()));
        if (in.HasAttribute(e.rename_to())) {
          return Status::InvalidArgument("rename target attribute " +
                                         e.rename_to() + " already present");
        }
        std::vector<Attribute> attrs = in.attributes();
        attrs[i].name = e.rename_to();
        node.kind = Kind::kRename;
        SETREC_ASSIGN_OR_RETURN(node.scheme,
                                RelationScheme::Make(std::move(attrs)));
        break;
      }
    }
    return Push(std::move(node));
  }

  /// The σ-chain from `top` down to `product`, fused into one hash join.
  /// This is the only place a chain is walked and its conditions are
  /// classified. Conditions are checked bottom-up, as InferScheme checks
  /// nested selections, and classified in chain order.
  Result<std::size_t> AddJoin(const Expr& top, const Expr& product) {
    std::vector<const Expr*> chain;
    for (const Expr* s = &top; s != &product; s = s->child().get()) {
      chain.push_back(s);
    }
    Node node;
    node.kind = Kind::kJoin;
    node.origin = &top;
    SETREC_ASSIGN_OR_RETURN(node.left, Add(*product.left()));
    SETREC_ASSIGN_OR_RETURN(node.right, Add(*product.right()));
    SETREC_ASSIGN_OR_RETURN(
        node.scheme, ProductScheme(SchemeOf(node.left), SchemeOf(node.right)));
    std::vector<Cond> conds(chain.size());
    for (std::size_t i = chain.size(); i-- > 0;) {
      SETREC_ASSIGN_OR_RETURN(conds[i], ResolveCond(*chain[i], node.scheme));
    }
    const std::size_t lw = SchemeOf(node.left).arity();
    for (Cond& c : conds) {
      c.a_left = c.ia < lw;
      c.b_left = c.ib < lw;
      if (!c.a_left) c.ia -= lw;
      if (!c.b_left) c.ib -= lw;
      if (c.a_left && c.b_left) {
        node.probe_filters.push_back(c);
      } else if (!c.a_left && !c.b_left) {
        node.build_filters.push_back(c);
      } else if (c.equal) {
        node.left_key.push_back(c.a_left ? c.ia : c.ib);
        node.right_key.push_back(c.a_left ? c.ib : c.ia);
        node.keys.push_back(c);
      } else {
        node.residuals.push_back(c);
      }
    }
    return Push(std::move(node));
  }

  const Catalog* catalog_;
  const Database* database_;
  Plan plan_;
  std::unordered_map<const Expr*, std::size_t> memo_;
};

Result<Plan> Plan::Build(const Expr& root, const Catalog& catalog) {
  return Builder(&catalog, nullptr).Run(root);
}

Result<Plan> Plan::Build(const Expr& root, const Database& database) {
  return Builder(nullptr, &database).Run(root);
}

Plan::Hoisting Plan::Hoist(const std::set<std::string>& varying) const {
  Hoisting out;
  out.scans.assign(nodes_.size(), false);
  std::vector<bool> feeds(nodes_.size(), false);  // input of a scanning op
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.kind == Kind::kScan) {
      out.scans[i] = varying.contains(n.origin->relation_name());
      continue;
    }
    const bool binary = n.kind == Kind::kUnion ||
                        n.kind == Kind::kDifference ||
                        n.kind == Kind::kProduct || n.kind == Kind::kJoin;
    out.scans[i] = out.scans[n.left] || (binary && out.scans[n.right]);
    if (!out.scans[i]) continue;
    feeds[n.left] = true;
    if (binary) feeds[n.right] = true;
    if (n.kind == Kind::kJoin && !out.scans[n.right]) out.builds.push_back(i);
  }
  feeds.back() = true;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (feeds[i] && !out.scans[i]) out.once.push_back(i);
  }
  return out;
}

Result<RelationScheme> InferScheme(const Expr& expr, const Catalog& catalog) {
  SETREC_ASSIGN_OR_RETURN(Plan plan, Plan::Build(expr, catalog));
  return plan.root().scheme;
}

}  // namespace setrec
