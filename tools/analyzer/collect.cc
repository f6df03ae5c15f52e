// qre-analyzer per-TU collector: one RecursiveASTVisitor discovers function
// bodies and declarations; a hand-rolled statement walker then tracks, in
// source order, the scoped-locker stack (pass 1), top-level loop nests and
// poll statements (pass 2), and unordered-iteration body effects (pass 4).
// Declaration types are classified for pass 3 as they are visited. All
// whole-program reasoning happens later, in Finalize() (report.cc).

#include "collect.h"

#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "clang/AST/ASTConsumer.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/Attr.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/DeclTemplate.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/AST/StmtCXX.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Frontend/CompilerInstance.h"
#include "clang/Frontend/FrontendAction.h"
#include "llvm/ADT/StringRef.h"
#include "llvm/Support/FileSystem.h"
#include "llvm/Support/Path.h"

namespace qre_analyzer {
namespace {

using namespace clang;

// Callback names whose invocation counts as an interrupt poll: the repo's
// stop predicates are std::function values / lambdas / methods with these
// names (executor interrupt_, validator budget_exceeded_, cgm's stopped
// lambda, RunControl::ShouldStop).
const char* const kPollNames[] = {"ShouldStop",       "should_stop",
                                  "interrupt",        "interrupt_",
                                  "interrupted",      "poll",
                                  "budget_exceeded",  "budget_exceeded_",
                                  "stopped"};

const char* const kScopedLockerNames[] = {"MutexLock",   "ReaderMutexLock",
                                          "WriterMutexLock", "lock_guard",
                                          "unique_lock", "shared_lock",
                                          "scoped_lock"};

bool InArray(llvm::StringRef name, const char* const (&arr)[8]) {
  for (const char* s : arr)
    if (name == s) return true;
  return false;
}

bool IsScopedLockerName(llvm::StringRef name) {
  for (const char* s : kScopedLockerNames)
    if (name == s) return true;
  return false;
}

bool IsUnorderedContainerName(llvm::StringRef name) {
  return name == "unordered_set" || name == "unordered_map" ||
         name == "unordered_multiset" || name == "unordered_multimap";
}

/// Skips separators (spaces, punctuation, UTF-8 dash bytes) after a marker
/// class and requires a substantive reason (>= 3 letters/digits).
bool HasReasonTail(llvm::StringRef rest) {
  int alnum = 0;
  for (char c : rest) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      if (++alnum >= 3) return true;
    }
  }
  return false;
}

/// One ordered-sink event inside an unordered-iteration body.
struct SinkEvent {
  const ValueDecl* decl = nullptr;  // sink variable or field, if resolvable
  bool local = false;               // a function-local VarDecl
  std::string desc;
};

class Collector;

/// Mutable per-function walking context (lock stack, loop nest, the stack
/// of unordered-iteration sites currently being analyzed).
struct WalkCtx {
  std::string fn_name;
  FunctionFacts* facts = nullptr;
  std::vector<std::pair<std::string, unsigned>> held;  // (lock id, line)
  LoopNest* nest = nullptr;
  bool in_morsel = false;
  // Unordered sites currently open (outermost first); body events apply to
  // every open site.
  std::vector<UnorderedSite*> usites;
  std::vector<std::vector<SinkEvent>*> usinks;
  std::vector<std::set<const VarDecl*>*> ulocals;
  // std::sort calls seen anywhere in the function: (sorted target, line).
  std::vector<std::pair<const ValueDecl*, unsigned>> sorts;
};

class Collector : public RecursiveASTVisitor<Collector> {
 public:
  Collector(AnalyzerState& state, ASTContext& ctx)
      : state_(state), ctx_(ctx), sm_(ctx.getSourceManager()) {}

  bool shouldVisitTemplateInstantiations() const { return true; }
  bool shouldVisitImplicitCode() const { return false; }

  bool VisitFunctionDecl(FunctionDecl* f) {
    if (!f->doesThisDeclarationHaveABody() || f->getBody() == nullptr)
      return true;
    if (f->isImplicit()) return true;
    if (const auto* m = llvm::dyn_cast<CXXMethodDecl>(f)) {
      // Lambda bodies are walked inline from their enclosing function.
      if (m->getParent()->isLambda()) return true;
    }
    WalkFunction(f);
    return true;
  }

  bool VisitVarDecl(VarDecl* v) {
    if (llvm::isa<ParmVarDecl>(v) || v->isImplicit()) return true;
    ClassifyGoverned(v->getType(), v->getLocation());
    return true;
  }

  bool VisitFieldDecl(FieldDecl* f) {
    ClassifyGoverned(f->getType(), f->getLocation());
    return true;
  }

 private:
  // ---- paths, comments, markers ----------------------------------------

  /// Root-relative (or absolute, if outside the root) path of `loc`.
  std::string FileOf(SourceLocation loc) {
    SourceLocation e = sm_.getExpansionLoc(loc);
    std::string raw = sm_.getFilename(e).str();
    if (raw.empty()) return raw;
    auto it = path_cache_.find(raw);
    if (it != path_cache_.end()) return it->second;
    llvm::SmallString<256> real;
    std::string out = raw;
    if (!llvm::sys::fs::real_path(raw, real)) {
      out = std::string(real.str());
      const std::string& root = state_.opts.root;
      if (!root.empty() && out.size() > root.size() + 1 &&
          out.compare(0, root.size(), root) == 0 && out[root.size()] == '/') {
        out = out.substr(root.size() + 1);
      }
    }
    path_cache_.emplace(raw, out);
    return out;
  }

  unsigned LineOf(SourceLocation loc) {
    return sm_.getExpansionLineNumber(loc);
  }

  /// Loads and caches a file's lines; on first load, validates every
  /// NOLINT-ANALYZER suppression in it and registers the valid ones.
  const std::vector<std::string>* LinesOf(const std::string& file) {
    auto it = file_lines_.find(file);
    if (it != file_lines_.end()) return &it->second;
    std::vector<std::string> lines;
    std::string disk = file;
    if (!llvm::sys::path::is_absolute(disk) && !state_.opts.root.empty())
      disk = state_.opts.root + "/" + file;
    std::ifstream in(disk);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    auto& stored = file_lines_[file] = std::move(lines);
    ScanSuppressions(file, stored);
    return &stored;
  }

  void ScanSuppressions(const std::string& file,
                        const std::vector<std::string>& lines) {
    if (!state_.scanned_files.insert(file).second) return;
    static const char kTag[] = "NOLINT-ANALYZER";
    for (unsigned i = 0; i < lines.size(); ++i) {
      size_t at = lines[i].find(kTag);
      if (at == std::string::npos) continue;
      const unsigned line_no = i + 1;
      llvm::StringRef rest(lines[i]);
      rest = rest.drop_front(at + sizeof(kTag) - 1);
      std::string pass;
      bool ok = rest.consume_front("(");
      if (ok) {
        size_t close = rest.find(')');
        ok = close != llvm::StringRef::npos;
        if (ok) {
          pass = rest.take_front(close).trim().str();
          rest = rest.drop_front(close + 1);
        }
      }
      const bool known = pass == kPassPollCoverage ||
                         pass == kPassGovernedAlloc ||
                         pass == kPassUnorderedEscape;
      ok = ok && rest.consume_front(":");
      ok = ok && rest.trim().size() >= 10;
      if (!ok || !known) {
        std::string why =
            pass == kPassLockOrder
                ? "lock-order findings are not suppressible: a cycle must "
                  "be fixed, not waved through"
                : "malformed suppression: expected // NOLINT-ANALYZER(<pass>)"
                  ": <justification >= 10 chars>";
        state_.AddFinding(file, line_no, kPassSuppression, why);
        continue;
      }
      state_.suppressions[file + ":" + std::to_string(line_no)].insert(pass);
    }
  }

  /// True if lines [line-3, line] of `file` carry `// <keyword> <cls> - <why>`
  /// for one of `classes`, with a substantive reason.
  bool HasMarker(const std::string& file, unsigned line, const char* keyword,
                 std::initializer_list<const char*> classes,
                 std::string* cls_out = nullptr) {
    const std::vector<std::string>* lines = LinesOf(file);
    if (lines == nullptr) return false;
    unsigned lo = line > 3 ? line - 3 : 1;
    for (unsigned l = lo; l <= line && l <= lines->size(); ++l) {
      llvm::StringRef text((*lines)[l - 1]);
      size_t slash = text.find("//");
      if (slash == llvm::StringRef::npos) continue;
      size_t at = text.find(keyword, slash);
      if (at == llvm::StringRef::npos) continue;
      llvm::StringRef rest = text.drop_front(at + llvm::StringRef(keyword).size());
      rest = rest.ltrim();
      for (const char* cls : classes) {
        // StringRef::startswith was removed in newer LLVM; spell it out.
        size_t n = llvm::StringRef(cls).size();
        if (rest.size() >= n && rest.take_front(n) == cls &&
            HasReasonTail(rest.drop_front(n))) {
          if (cls_out != nullptr) *cls_out = cls;
          return true;
        }
      }
    }
    return false;
  }

  bool UnderRestrict(const std::string& file) const {
    return StartsWithAny(file, state_.opts.restrict_dirs);
  }
  bool UnderPollDirs(const std::string& file) const {
    return StartsWithAny(file, state_.opts.poll_dirs);
  }

  // ---- pass 3: governed-type classification ----------------------------

  /// Walks the sugar chain of `qt` looking for the governed aliases, then
  /// falls back to canonical-type evidence (the named filter classes, the
  /// IdTupleHash hasher that identifies TupleSet through `auto`, nested
  /// row-id vectors).
  bool IsGovernedType(QualType qt, std::string* which) {
    if (qt.isNull()) return false;
    if (qt->isReferenceType() || qt->isPointerType()) return false;
    const Type* ty = qt.getTypePtr();
    for (int i = 0; i < 32 && ty != nullptr; ++i) {
      if (const auto* td = llvm::dyn_cast<TypedefType>(ty)) {
        llvm::StringRef n = td->getDecl()->getName();
        if (n == "TupleSet" || n == "ReachMap" || n == "JobTable" ||
            n == "AnswerBuffer") {
          *which = n.str();
          return true;
        }
        ty = td->getDecl()->getUnderlyingType().getTypePtr();
        continue;
      }
      if (const auto* et = llvm::dyn_cast<ElaboratedType>(ty)) {
        ty = et->getNamedType().getTypePtr();
        continue;
      }
      if (const auto* at = llvm::dyn_cast<AutoType>(ty)) {
        if (!at->isDeduced() || at->getDeducedType().isNull()) return false;
        ty = at->getDeducedType().getTypePtr();
        continue;
      }
      if (const auto* st = llvm::dyn_cast<SubstTemplateTypeParmType>(ty)) {
        ty = st->getReplacementType().getTypePtr();
        continue;
      }
      break;
    }
    QualType canon = qt.getCanonicalType();
    const CXXRecordDecl* rec = canon->getAsCXXRecordDecl();
    if (rec == nullptr) return false;
    llvm::StringRef n = rec->getName();
    if (n == "BitmapFilter" || n == "CompositeKeyFilter") {
      *which = n.str();
      return true;
    }
    const auto* spec = llvm::dyn_cast<ClassTemplateSpecializationDecl>(rec);
    if (spec == nullptr) return false;
    const TemplateArgumentList& args = spec->getTemplateArgs();
    const unsigned hasher_arg =
        n == "unordered_set" ? 1u : (n == "unordered_map" ? 2u : 0u);
    if (hasher_arg != 0 && args.size() > hasher_arg &&
        args[hasher_arg].getKind() == TemplateArgument::Type) {
      const CXXRecordDecl* hasher =
          args[hasher_arg].getAsType()->getAsCXXRecordDecl();
      if (hasher != nullptr && hasher->getName() == "IdTupleHash") {
        *which = n.str() + " (via IdTupleHash hasher)";
        return true;
      }
    }
    if (n == "vector" && args.size() >= 1 &&
        args[0].getKind() == TemplateArgument::Type) {
      const CXXRecordDecl* inner =
          args[0].getAsType().getCanonicalType()->getAsCXXRecordDecl();
      if (inner != nullptr && inner->getName() == "vector") {
        std::string spelled = qt.getAsString();
        if (spelled.find("RowId") != std::string::npos ||
            spelled.find("ValueId") != std::string::npos) {
          *which = "row-id matrix (vector<vector<RowId|ValueId>>)";
          return true;
        }
      }
    }
    return false;
  }

  void ClassifyGoverned(QualType qt, SourceLocation loc) {
    if (loc.isInvalid()) return;
    std::string file = FileOf(loc);
    if (file.empty() || !UnderRestrict(file)) return;
    std::string which;
    if (!IsGovernedType(qt, &which)) return;
    unsigned line = LineOf(loc);
    std::string key = file + ":" + std::to_string(line);
    if (state_.governed_sites.count(key) > 0) return;
    GovernedSite site;
    site.pos = {file, line};
    site.type_desc = which;
    site.has_marker = HasMarker(file, line, "gov:", {"charged", "bounded"});
    state_.governed_sites.emplace(std::move(key), std::move(site));
  }

  // ---- pass 1 helpers: lock identity -----------------------------------

  /// Canonical identity of a mutex expression: Class::field for members
  /// (any instance), <function>::name for locals, qualified name for
  /// globals; falls back to the pretty-printed expression.
  std::string LockId(const Expr* e, const WalkCtx& ctx) {
    if (e == nullptr) return "<unknown>";
    e = e->IgnoreParenImpCasts();
    if (const auto* uo = llvm::dyn_cast<UnaryOperator>(e)) {
      if (uo->getOpcode() == UO_AddrOf)
        e = uo->getSubExpr()->IgnoreParenImpCasts();
    }
    if (const auto* me = llvm::dyn_cast<MemberExpr>(e)) {
      return me->getMemberDecl()->getQualifiedNameAsString();
    }
    if (const auto* dr = llvm::dyn_cast<DeclRefExpr>(e)) {
      const ValueDecl* d = dr->getDecl();
      if (const auto* vd = llvm::dyn_cast<VarDecl>(d)) {
        if (vd->isLocalVarDecl())
          return ctx.fn_name + "::" + vd->getNameAsString() + " (local)";
      }
      return d->getQualifiedNameAsString();
    }
    std::string s;
    llvm::raw_string_ostream os(s);
    e->printPretty(os, nullptr, PrintingPolicy(ctx_.getLangOpts()));
    return os.str();
  }

  /// Records edges held -> id against the locks in `held_before` and pushes
  /// the new acquisition.
  void Acquire(const std::string& id, SourceLocation loc, WalkCtx& ctx,
               size_t held_before) {
    std::string file = FileOf(loc);
    unsigned line = LineOf(loc);
    for (size_t i = 0; i < held_before && i < ctx.held.size(); ++i) {
      const auto& h = ctx.held[i];
      if (h.first == id) continue;
      LockEdge edge;
      edge.from = h.first;
      edge.to = id;
      edge.acquire_pos = {file, line};
      edge.function = ctx.fn_name;
      edge.held_line = h.second;
      state_.lock_edges.insert(std::move(edge));
    }
    ctx.held.emplace_back(id, line);
    ctx.facts->acquires.insert(id);
  }

  void Release(const std::string& id, WalkCtx& ctx) {
    for (auto it = ctx.held.rbegin(); it != ctx.held.rend(); ++it) {
      if (it->first == id) {
        ctx.held.erase(std::next(it).base());
        return;
      }
    }
  }

  // ---- pass 2/4 helpers -------------------------------------------------

  void NotePoll(WalkCtx& ctx) {
    ctx.facts->polls_directly = true;
    if (ctx.nest != nullptr) ctx.nest->has_poll = true;
  }

  /// The simple (unqualified) name a call is made through, covering direct
  /// calls, member calls, and operator() on lambdas / std::function values.
  std::string CallSpelling(const CallExpr* call) {
    if (const auto* op = llvm::dyn_cast<CXXOperatorCallExpr>(call)) {
      if (op->getOperator() == OO_Call && op->getNumArgs() > 0) {
        const Expr* obj = op->getArg(0)->IgnoreParenImpCasts();
        if (const auto* dr = llvm::dyn_cast<DeclRefExpr>(obj))
          return dr->getDecl()->getNameAsString();
        if (const auto* me = llvm::dyn_cast<MemberExpr>(obj))
          return me->getMemberDecl()->getNameAsString();
      }
    }
    if (const FunctionDecl* fd = call->getDirectCallee())
      return fd->getNameAsString();
    const Expr* cal = call->getCallee();
    if (cal != nullptr) {
      cal = cal->IgnoreParenImpCasts();
      if (const auto* dr = llvm::dyn_cast<DeclRefExpr>(cal))
        return dr->getDecl()->getNameAsString();
      if (const auto* me = llvm::dyn_cast<MemberExpr>(cal))
        return me->getMemberDecl()->getNameAsString();
    }
    return "";
  }

  /// Record an ordered-sink event on every open unordered site.
  void NoteOrderedSink(const Expr* target, const std::string& desc,
                       WalkCtx& ctx) {
    if (ctx.usites.empty()) return;
    const ValueDecl* decl = SinkDeclOf(target);
    bool local = false;
    if (const auto* vd = llvm::dyn_cast_or_null<VarDecl>(decl))
      local = vd->isLocalVarDecl() && !llvm::isa<ParmVarDecl>(vd);
    for (size_t i = 0; i < ctx.usites.size(); ++i) {
      ctx.usites[i]->ordered_sink = true;
      ctx.usites[i]->only_safe_ops = false;
      if (!local) ctx.usites[i]->sink_all_local = false;
      if (ctx.usites[i]->sink_desc.empty()) ctx.usites[i]->sink_desc = desc;
      ctx.usinks[i]->push_back(SinkEvent{decl, local, desc});
    }
  }

  /// Declaration an append-target expression writes into, if resolvable.
  const ValueDecl* SinkDeclOf(const Expr* target) {
    if (target == nullptr) return nullptr;
    const Expr* t = target->IgnoreParenImpCasts();
    if (const auto* dr = llvm::dyn_cast<DeclRefExpr>(t)) return dr->getDecl();
    if (const auto* me = llvm::dyn_cast<MemberExpr>(t))
      return me->getMemberDecl();
    return nullptr;
  }

  void NoteUnknownOp(WalkCtx& ctx) {
    for (UnorderedSite* s : ctx.usites) s->only_safe_ops = false;
  }

  /// Canonical record name of an expression's class type ("" if none).
  llvm::StringRef RecordNameOf(const Expr* e) {
    if (e == nullptr) return "";
    QualType qt = e->getType();
    if (qt.isNull()) return "";
    const CXXRecordDecl* rec =
        qt.getNonReferenceType().getCanonicalType()->getAsCXXRecordDecl();
    return rec != nullptr ? rec->getName() : llvm::StringRef("");
  }

  // ---- the statement walker --------------------------------------------

  void WalkFunction(FunctionDecl* f) {
    WalkCtx ctx;
    ctx.fn_name = f->getQualifiedNameAsString();
    ctx.facts = &state_.functions[ctx.fn_name];
    // Thread-safety REQUIRES annotations: the named capabilities are held
    // on entry, so anything acquired inside orders after them.
    for (const auto* attr : f->specific_attrs<RequiresCapabilityAttr>()) {
      for (const Expr* arg : attr->args())
        ctx.held.emplace_back(LockId(arg, ctx), LineOf(f->getLocation()));
    }
    // Make sure the defining file's suppressions are validated even when no
    // site in it ever consults a marker.
    std::string file = FileOf(f->getLocation());
    if (!file.empty() && UnderRestrict(file)) LinesOf(file);
    WalkStmt(f->getBody(), ctx);
    ResolveSortedSinks(ctx);
  }

  /// After the whole function is walked: an ordered sink is harmless if the
  /// sink variable is sorted later in the same function.
  void ResolveSortedSinks(WalkCtx& ctx) {
    for (auto& entry : pending_sites_) {
      UnorderedSite* site = entry.first;
      std::vector<SinkEvent>& sinks = entry.second;
      if (!site->ordered_sink || sinks.empty()) continue;
      bool all_sorted = true;
      for (const SinkEvent& s : sinks) {
        bool sorted = false;
        if (s.decl != nullptr) {
          for (const auto& [decl, line] : ctx.sorts) {
            if (decl == s.decl && line >= site->pos.line) sorted = true;
          }
        }
        if (!sorted) all_sorted = false;
      }
      site->sink_sorted_after = all_sorted;
    }
    pending_sites_.clear();
  }

  void WalkChildren(const Stmt* s, WalkCtx& ctx) {
    for (const Stmt* c : s->children())
      if (c != nullptr) WalkStmt(c, ctx);
  }

  void WalkStmt(const Stmt* s, WalkCtx& ctx) {
    if (s == nullptr) return;

    if (const auto* cs = llvm::dyn_cast<CompoundStmt>(s)) {
      size_t mark = ctx.held.size();
      for (const Stmt* c : cs->body()) WalkStmt(c, ctx);
      if (ctx.held.size() > mark) ctx.held.resize(mark);
      return;
    }

    if (const auto* ds = llvm::dyn_cast<DeclStmt>(s)) {
      HandleDeclStmt(ds, ctx);
      return;
    }

    if (llvm::isa<ForStmt>(s) || llvm::isa<WhileStmt>(s) ||
        llvm::isa<DoStmt>(s) || llvm::isa<CXXForRangeStmt>(s)) {
      HandleLoop(s, ctx);
      return;
    }

    if (const auto* dr = llvm::dyn_cast<DeclRefExpr>(s)) {
      if (dr->getDecl()->getName() == "kInterruptPollMask") NotePoll(ctx);
      return;  // leaf
    }

    if (const auto* lam = llvm::dyn_cast<LambdaExpr>(s)) {
      // Capture initializers, then the body inline: a lambda's loops and
      // polls are attributed to the enclosing function (over-approximate
      // for never-invoked lambdas; see DESIGN.md §14).
      for (const Expr* init : lam->capture_inits())
        if (init != nullptr) WalkStmt(init, ctx);
      WalkStmt(lam->getBody(), ctx);
      return;
    }

    if (const auto* call = llvm::dyn_cast<CallExpr>(s)) {
      HandleCall(call, ctx);
      return;
    }

    if (const auto* bin = llvm::dyn_cast<BinaryOperator>(s)) {
      HandleBinary(bin, ctx);
      return;
    }

    WalkChildren(s, ctx);
  }

  void HandleDeclStmt(const DeclStmt* ds, WalkCtx& ctx) {
    for (const Decl* d : ds->decls()) {
      const auto* vd = llvm::dyn_cast<VarDecl>(d);
      if (vd == nullptr) continue;
      if (!ctx.ulocals.empty()) {
        for (auto* locals : ctx.ulocals) locals->insert(vd);
      }
      // Scoped locker?
      const CXXRecordDecl* rec =
          vd->getType().getCanonicalType()->getAsCXXRecordDecl();
      const Expr* init = vd->getInit();
      if (rec != nullptr && IsScopedLockerName(rec->getName()) &&
          init != nullptr) {
        const Expr* stripped = init->IgnoreImplicit();
        if (const auto* ce = llvm::dyn_cast<CXXConstructExpr>(stripped)) {
          size_t held_before = ctx.held.size();
          for (unsigned i = 0; i < ce->getNumArgs(); ++i) {
            // std::scoped_lock acquires its arguments atomically; edges are
            // only recorded against locks held before the statement.
            Acquire(LockId(ce->getArg(i), ctx), vd->getLocation(), ctx,
                    held_before);
          }
          continue;
        }
      }
      if (init != nullptr) WalkStmt(init, ctx);
    }
  }

  void HandleLoop(const Stmt* s, WalkCtx& ctx) {
    const bool is_top = ctx.nest == nullptr;
    LoopNest local;
    if (is_top) {
      local.pos = {FileOf(s->getBeginLoc()), LineOf(s->getBeginLoc())};
      local.function = ctx.fn_name;
      local.morsel_bounded = ctx.in_morsel;
      ctx.nest = &local;
    }

    std::string file = FileOf(s->getBeginLoc());
    unsigned line = LineOf(s->getBeginLoc());

    // Data-scaled classification (pass 2), only inside the poll-checked
    // directories.
    if (UnderPollDirs(file) && !ctx.nest->data_scaled) {
      std::string trigger = DataScaledTrigger(s, ctx);
      if (!trigger.empty() &&
          !HasMarker(file, line, "poll:", {"bounded"}) &&
          !state_.IsSuppressed(file, line, kPassPollCoverage)) {
        ctx.nest->data_scaled = true;
        ctx.nest->data_pos = {file, line};
        ctx.nest->trigger = trigger;
      }
    }

    // Unordered-iteration site (pass 4), in the reported tree.
    UnorderedSite usite;
    std::vector<SinkEvent> usinks;
    std::set<const VarDecl*> ulocals;
    bool opened = false;
    if (const auto* rf = llvm::dyn_cast<CXXForRangeStmt>(s)) {
      if (UnderRestrict(file) && IsUnorderedRange(rf, &usite)) {
        usite.pos = {file, line};
        usite.function = ctx.fn_name;
        std::string cls;
        if (HasMarker(file, line, "det:", {"sorted", "order-insensitive"},
                      &cls)) {
          usite.marker = cls == "sorted"
                             ? UnorderedSite::Marker::kSorted
                             : UnorderedSite::Marker::kOrderInsensitive;
        }
        ctx.usites.push_back(&usite);
        ctx.usinks.push_back(&usinks);
        ctx.ulocals.push_back(&ulocals);
        opened = true;
      }
    }

    WalkChildren(s, ctx);

    if (opened) {
      ctx.usites.pop_back();
      ctx.usinks.pop_back();
      ctx.ulocals.pop_back();
      std::string key = usite.pos.file + ":" + std::to_string(usite.pos.line);
      auto [it, fresh] = state_.unordered_sites.emplace(key, usite);
      if (fresh) {
        // sink_sorted_after is resolved once the whole function is walked.
        pending_sites_.emplace_back(&it->second, std::move(usinks));
      }
    }

    if (is_top) {
      std::string key =
          local.pos.file + ":" + std::to_string(local.pos.line);
      auto [it, fresh] = state_.loop_nests.emplace(key, local);
      if (!fresh) {
        it->second.has_poll |= local.has_poll;
        it->second.callees.insert(local.callees.begin(), local.callees.end());
      }
      ctx.nest = nullptr;
    }
  }

  /// Why this loop's trip count scales with data ("" if it does not).
  std::string DataScaledTrigger(const Stmt* s, WalkCtx& ctx) {
    if (const auto* rf = llvm::dyn_cast<CXXForRangeStmt>(s)) {
      const Expr* range = rf->getRangeInit();
      if (range == nullptr) return "";
      llvm::StringRef rec = RecordNameOf(range);
      if (IsUnorderedContainerName(rec))
        return "iterates a " + rec.str() + " (TupleSet/ReachMap class)";
      if (ExprCallsAnyOf(range, {"DistinctSet"}))
        return "iterates a Column::DistinctSet() extent";
      if (ExprCallsAnyOf(range, {"Lookup", "Lookup1", "LookupBatch"}))
        return "iterates an index posting-list extent";
      return "";
    }
    if (const auto* fs = llvm::dyn_cast<ForStmt>(s)) {
      const auto* ds = llvm::dyn_cast_or_null<DeclStmt>(fs->getInit());
      if (ds == nullptr) return "";
      for (const Decl* d : ds->decls()) {
        const auto* vd = llvm::dyn_cast<VarDecl>(d);
        if (vd == nullptr) continue;
        std::string spelled = vd->getType().getAsString();
        if (spelled == "RowId" || spelled == "fastqre::RowId")
          return "RowId-indexed row scan";
      }
    }
    return "";
  }

  bool ExprCallsAnyOf(const Expr* e, std::initializer_list<const char*> names) {
    if (e == nullptr) return false;
    if (const auto* call = llvm::dyn_cast<CallExpr>(e)) {
      std::string spelled = CallSpelling(call);
      for (const char* n : names)
        if (spelled == n) return true;
    }
    for (const Stmt* c : e->children()) {
      const auto* ce = llvm::dyn_cast_or_null<Expr>(c);
      if (ce != nullptr && ExprCallsAnyOf(ce, names)) return true;
    }
    return false;
  }

  bool IsUnorderedRange(const CXXForRangeStmt* rf, UnorderedSite* /*site*/) {
    const Expr* range = rf->getRangeInit();
    if (range == nullptr) return false;
    if (IsUnorderedContainerName(RecordNameOf(range))) return true;
    return ExprCallsAnyOf(range, {"DistinctSet"});
  }

  void HandleCall(const CallExpr* call, WalkCtx& ctx) {
    std::string spelled = CallSpelling(call);

    if (InArray(spelled, kPollNames)) NotePoll(ctx);

    // RunMorsels(pool, workers, n, fn): loops inside `fn` are bounded by
    // the morsel partitioning, which polls between morsels.
    if (spelled == "RunMorsels") {
      for (unsigned i = 0; i < call->getNumArgs(); ++i) {
        const Expr* arg = call->getArg(i)->IgnoreImplicit();
        if (const auto* mt = llvm::dyn_cast<MaterializeTemporaryExpr>(arg))
          arg = mt->getSubExpr()->IgnoreImplicit();
        if (const auto* ce = llvm::dyn_cast<CXXConstructExpr>(arg);
            ce != nullptr && ce->getNumArgs() == 1)
          arg = ce->getArg(0)->IgnoreImplicit();
        if (const auto* lam = llvm::dyn_cast<LambdaExpr>(arg)) {
          bool saved = ctx.in_morsel;
          ctx.in_morsel = true;
          WalkStmt(lam->getBody(), ctx);
          ctx.in_morsel = saved;
        } else {
          WalkStmt(arg, ctx);
        }
      }
      return;
    }

    const FunctionDecl* callee = call->getDirectCallee();
    const auto* member = llvm::dyn_cast<CXXMemberCallExpr>(call);

    // Manual Lock()/Unlock() and thread-safety ACQUIRE/RELEASE attributes.
    if (member != nullptr && callee != nullptr) {
      const Expr* obj = member->getImplicitObjectArgument();
      llvm::StringRef mname = callee->getName();
      llvm::StringRef oname = RecordNameOf(obj);
      if ((mname == "Lock" || mname == "LockShared" || mname == "lock" ||
           mname == "lock_shared") &&
          (oname == "Mutex" || oname == "SharedMutex" ||
           callee->hasAttr<AcquireCapabilityAttr>())) {
        Acquire(LockId(obj, ctx), call->getBeginLoc(), ctx, ctx.held.size());
        WalkChildren(call, ctx);
        return;
      }
      if ((mname == "Unlock" || mname == "UnlockShared" || mname == "unlock" ||
           mname == "unlock_shared") &&
          (oname == "Mutex" || oname == "SharedMutex" ||
           callee->hasAttr<ReleaseCapabilityAttr>())) {
        Release(LockId(obj, ctx), ctx);
        WalkChildren(call, ctx);
        return;
      }
      if (mname == "sort") {
        // container.sort() counts like std::sort(container...).
        RecordSort(obj, call->getBeginLoc(), ctx);
      }
    }

    if (callee != nullptr && callee->getName() == "sort" &&
        call->getNumArgs() >= 1) {
      // std::sort(v.begin(), ...): resolve the sorted object from arg 0.
      const Expr* a0 = call->getArg(0)->IgnoreParenImpCasts();
      if (const auto* mc = llvm::dyn_cast<CXXMemberCallExpr>(a0))
        RecordSort(mc->getImplicitObjectArgument(), call->getBeginLoc(), ctx);
      else
        RecordSort(a0, call->getBeginLoc(), ctx);
    }

    // Call-graph facts.
    if (callee != nullptr) {
      std::string qname = callee->getQualifiedNameAsString();
      ctx.facts->callees.insert(qname);
      if (ctx.nest != nullptr) ctx.nest->callees.insert(qname);
      if (!ctx.held.empty()) {
        CallUnderLock cul;
        for (const auto& h : ctx.held) cul.held.push_back(h.first);
        cul.callee = qname;
        cul.pos = {FileOf(call->getBeginLoc()), LineOf(call->getBeginLoc())};
        cul.function = ctx.fn_name;
        state_.calls_under_lock.push_back(std::move(cul));
      }
    }

    // Pass-4 body-effect classification.
    if (!ctx.usites.empty()) ClassifyCallEffect(call, callee, spelled, ctx);

    WalkChildren(call, ctx);
  }

  void RecordSort(const Expr* target, SourceLocation loc, WalkCtx& ctx) {
    const ValueDecl* decl = SinkDeclOf(target);
    if (decl != nullptr) ctx.sorts.emplace_back(decl, LineOf(loc));
  }

  void ClassifyCallEffect(const CallExpr* call, const FunctionDecl* callee,
                          const std::string& spelled, WalkCtx& ctx) {
    // Reading a stop predicate is order-insensitive by construction.
    if (InArray(spelled, kPollNames)) return;

    const auto* member = llvm::dyn_cast<CXXMemberCallExpr>(call);
    const auto* opcall = llvm::dyn_cast<CXXOperatorCallExpr>(call);

    // Compound append through an overloaded operator (std::string += x).
    if (opcall != nullptr && opcall->getOperator() == OO_PlusEqual &&
        opcall->getNumArgs() >= 1 &&
        RecordNameOf(opcall->getArg(0)) == "basic_string") {
      NoteOrderedSink(opcall->getArg(0), "appends to a string (+=)", ctx);
      return;
    }

    // Stream insertion: operator<< with an ostream-like left operand.
    if (opcall != nullptr && opcall->getOperator() == OO_LessLess &&
        opcall->getNumArgs() >= 1) {
      llvm::StringRef lhs = RecordNameOf(opcall->getArg(0));
      if (lhs.contains("ostream") || lhs.contains("ostringstream")) {
        NoteOrderedSink(nullptr, "streams values via operator<<", ctx);
        return;
      }
    }

    if (member != nullptr) {
      const Expr* obj = member->getImplicitObjectArgument();
      llvm::StringRef rec = RecordNameOf(obj);
      if (spelled == "push_back" || spelled == "emplace_back" ||
          spelled == "append" || spelled == "AddRow") {
        NoteOrderedSink(obj, "appends to an ordered container (" +
                                 spelled + ")", ctx);
        return;
      }
      if (spelled == "insert" || spelled == "emplace") {
        const bool assoc = IsUnorderedContainerName(rec) || rec == "set" ||
                           rec == "map" || rec == "multiset" ||
                           rec == "multimap";
        if (assoc) return;  // order-insensitive final contents
        NoteOrderedSink(obj, "positional insert into " + rec.str(), ctx);
        return;
      }
      static const char* const kSafeMethods[] = {
          "count",    "find",  "contains", "at",    "size", "empty",
          "reserve",  "begin", "end",      "cbegin", "cend", "clear",
          "Lookup",   "Lookup1", "LookupBatch", "Test", "MayContain"};
      for (const char* m : kSafeMethods)
        if (spelled == m) return;
      if (rec == "priority_queue" && (spelled == "push" || spelled == "pop"))
        return;
      NoteUnknownOp(ctx);
      return;
    }

    static const char* const kSafeFree[] = {"min", "max", "swap", "move",
                                            "get", "make_pair", "tie"};
    for (const char* m : kSafeFree)
      if (spelled == m) return;
    (void)callee;
    NoteUnknownOp(ctx);
  }

  void HandleBinary(const BinaryOperator* bin, WalkCtx& ctx) {
    // (The masked-counter poll idiom is recognized at the kInterruptPollMask
    // DeclRef leaf, so no special casing of `&` here.)
    if (!ctx.usites.empty() && bin->isAssignmentOp()) {
      const Expr* lhs = bin->getLHS()->IgnoreParenImpCasts();
      if (bin->getOpcode() == BO_AddAssign &&
          RecordNameOf(lhs) == "basic_string") {
        NoteOrderedSink(lhs, "appends to a string (+=)", ctx);
        WalkChildren(bin, ctx);
        return;
      }
      const bool commutative = bin->getOpcode() == BO_AddAssign ||
                               bin->getOpcode() == BO_OrAssign ||
                               bin->getOpcode() == BO_AndAssign ||
                               bin->getOpcode() == BO_XorAssign;
      const bool arithmetic =
          !lhs->getType().isNull() &&
          (lhs->getType()->isIntegerType() ||
           lhs->getType()->isFloatingType() || lhs->getType()->isBooleanType());
      if (commutative && arithmetic) {
        // Commutative accumulation: order-insensitive.
      } else if (const auto* dr = llvm::dyn_cast<DeclRefExpr>(lhs)) {
        const auto* vd = llvm::dyn_cast<VarDecl>(dr->getDecl());
        bool local_to_loop = false;
        if (vd != nullptr && !ctx.ulocals.empty() &&
            ctx.ulocals.back()->count(vd) > 0) {
          local_to_loop = true;
        }
        if (!local_to_loop) NoteUnknownOp(ctx);
      } else {
        NoteUnknownOp(ctx);
      }
    }
    WalkChildren(bin, ctx);
  }

  AnalyzerState& state_;
  ASTContext& ctx_;
  SourceManager& sm_;
  std::map<std::string, std::string> path_cache_;
  std::map<std::string, std::vector<std::string>> file_lines_;
  // Unordered sites awaiting sorted-after resolution (per function).
  std::vector<std::pair<UnorderedSite*, std::vector<SinkEvent>>> pending_sites_;
};

class CollectConsumer : public ASTConsumer {
 public:
  explicit CollectConsumer(AnalyzerState& state) : state_(state) {}
  void HandleTranslationUnit(ASTContext& ctx) override {
    Collector collector(state_, ctx);
    collector.TraverseDecl(ctx.getTranslationUnitDecl());
  }

 private:
  AnalyzerState& state_;
};

class CollectAction : public ASTFrontendAction {
 public:
  explicit CollectAction(AnalyzerState& state) : state_(state) {}
  std::unique_ptr<ASTConsumer> CreateASTConsumer(
      CompilerInstance& /*ci*/, llvm::StringRef /*file*/) override {
    return std::make_unique<CollectConsumer>(state_);
  }

 private:
  AnalyzerState& state_;
};

class CollectFactory : public tooling::FrontendActionFactory {
 public:
  explicit CollectFactory(AnalyzerState& state) : state_(state) {}
  std::unique_ptr<FrontendAction> create() override {
    return std::make_unique<CollectAction>(state_);
  }

 private:
  AnalyzerState& state_;
};

}  // namespace

std::unique_ptr<clang::tooling::FrontendActionFactory> MakeCollectorFactory(
    AnalyzerState& state) {
  return std::make_unique<CollectFactory>(state);
}

}  // namespace qre_analyzer
