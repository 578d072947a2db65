#include "interp/machine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <tuple>
#include <unordered_map>

#include "ir/refs.h"

namespace ps::interp {

using fortran::BinOp;
using fortran::Expr;
using fortran::ExprKind;
using fortran::Procedure;
using fortran::Program;
using fortran::Stmt;
using fortran::StmtKind;
using fortran::TypeKind;
using fortran::UnOp;

namespace {

struct RuntimeError {
  std::string message;
  ps::SourceLoc loc;
};

/// Normal termination via STOP: unwinds the frame stack to run(). Distinct
/// from RuntimeError so a genuinely empty error message can never be
/// mistaken for a clean stop. Carries the STOP statement's id so reports
/// can say which STOP ended the run.
struct StopSignal {
  fortran::StmtId stmt = fortran::kInvalidStmt;
};

/// Intrinsics the interpreter evaluates; aliases share one entry.
enum class Intrinsic : std::uint8_t {
  Abs, Iabs, Sqrt, Sin, Cos, Tan, Atan, Exp, Log, Log10, Atan2,
  Max, Amax1, Min, Amin1, Mod, Float, Int, Nint, Sign, Isign, Dim, Idim,
  Unknown,  // named by ir::isIntrinsic but not evaluated here
};

Intrinsic intrinsicOf(const std::string& name) {
  static const std::unordered_map<std::string, Intrinsic> table = {
      {"ABS", Intrinsic::Abs},      {"DABS", Intrinsic::Abs},
      {"IABS", Intrinsic::Iabs},    {"SQRT", Intrinsic::Sqrt},
      {"DSQRT", Intrinsic::Sqrt},   {"SIN", Intrinsic::Sin},
      {"COS", Intrinsic::Cos},      {"TAN", Intrinsic::Tan},
      {"ATAN", Intrinsic::Atan},    {"EXP", Intrinsic::Exp},
      {"DEXP", Intrinsic::Exp},     {"LOG", Intrinsic::Log},
      {"ALOG", Intrinsic::Log},     {"DLOG", Intrinsic::Log},
      {"LOG10", Intrinsic::Log10},  {"ATAN2", Intrinsic::Atan2},
      {"MAX", Intrinsic::Max},      {"MAX0", Intrinsic::Max},
      {"AMAX1", Intrinsic::Amax1},  {"MIN", Intrinsic::Min},
      {"MIN0", Intrinsic::Min},     {"AMIN1", Intrinsic::Amin1},
      {"MOD", Intrinsic::Mod},      {"AMOD", Intrinsic::Mod},
      {"FLOAT", Intrinsic::Float},  {"REAL", Intrinsic::Float},
      {"DBLE", Intrinsic::Float},   {"SNGL", Intrinsic::Float},
      {"DFLOAT", Intrinsic::Float}, {"INT", Intrinsic::Int},
      {"IFIX", Intrinsic::Int},     {"NINT", Intrinsic::Nint},
      {"SIGN", Intrinsic::Sign},    {"ISIGN", Intrinsic::Isign},
      {"DIM", Intrinsic::Dim},      {"IDIM", Intrinsic::Idim},
  };
  auto it = table.find(name);
  return it == table.end() ? Intrinsic::Unknown : it->second;
}

struct LProc;

/// How one name of a procedure resolves to storage. Resolution itself is
/// lazy (first touch in a frame), because creating a local or COMMON
/// member evaluates its dimension bounds and PARAMETER value, and those
/// reads are traced and race-checked at that moment.
struct SlotInfo {
  std::uint32_t name = 0;  // interned name
  const fortran::VarDecl* decl = nullptr;
  int common = -1;         // COMMON member index (block|name), -1 = none
  TypeKind localType = TypeKind::Real;
  bool isArray = false;    // declared with dimensions
  bool isParameter = false;
  int parameterValue = -1;  // node materializing a PARAMETER local
  /// (lower, upper) bound nodes per declared dimension; -1 = absent.
  std::vector<std::pair<int, int>> dims;
};

/// A lowered expression node. Children live in LProc::kids.
struct Node {
  enum class K : std::uint8_t {
    Const, Var, Elem, Intrinsic, Call, Undefined, Unary, Binary,
  };
  K k = K::Const;
  std::uint8_t op = 0;  // UnOp, BinOp or Intrinsic
  int slot = -1;        // Var / Elem
  std::uint32_t first = 0, count = 0;
  const LProc* callee = nullptr;
  const Expr* expr = nullptr;  // source: name and location for diagnostics
  Value value;                 // Const
};

/// A flattened instruction.
struct Op {
  enum class K : std::uint8_t {
    Assign,   // x := y (lhs ref node, rhs node)
    Call,     // CALL: x is a Call/Undefined node
    Read,     // store inputs into kids[first, first+count)
    Write,    // output kids[first, first+count)
    Nop,      // CONTINUE / assertion
    Branch,   // if node x is FALSE jump to a
    Jump,     // jump to a
    DoInit,   // initialize loop c; on zero trip jump to a (exit)
    DoStep,   // advance loop c; if more iterations jump to a (body)
    ArithIf,  // three-way branch to a/b/c on sign of node x
    Ret,      // return from procedure
    Stop,     // stop the whole program
  };
  K k = K::Nop;
  const Stmt* stmt = nullptr;
  int counter = -1;  // dense statement counter, -1 = none
  int a = 0, b = 0, c = 0;
  int x = -1, y = -1;
  std::uint32_t first = 0, count = 0;
  // DoInit / DoStep: induction slot and bound nodes (step -1 = 1).
  int iv = -1, lo = -1, hi = -1, step = -1;
};

/// One procedure lowered for execution: ops with resolved jumps, expression
/// nodes with resolved slots and callees, and the frame slot layout.
struct LProc {
  const Procedure* proc = nullptr;
  std::vector<Op> ops;
  std::vector<Node> nodes;
  std::vector<std::int32_t> kids;
  std::vector<SlotInfo> slots;
  std::unordered_map<std::string, int> slotOf;
  std::vector<int> paramSlots;  // slot of params[i]
  int resultSlot = -1;          // the variable named after the procedure
  int loopSlots = 0;
};

/// The whole program lowered once per Machine and shared by its runs.
struct LoweredProgram {
  std::vector<std::unique_ptr<LProc>> procs;  // program.units order
  const LProc* main = nullptr;
  std::vector<std::string> names;             // interned variable names
  int commons = 0;                            // distinct block|name members
  std::vector<fortran::StmtId> counterStmt;   // counter -> statement id
};

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

class Lowerer {
 public:
  Lowerer(const Program& program, LoweredProgram& out)
      : program_(program), out_(out) {}

  void run() {
    for (const auto& u : program_.units) {
      auto lp = std::make_unique<LProc>();
      lp->proc = u.get();
      if (u->kind == fortran::ProcKind::Program) out_.main = lp.get();
      out_.procs.push_back(std::move(lp));
    }
    for (auto& lp : out_.procs) lowerProc(*lp);
  }

 private:
  /// First unit with this name (the interpreter's call resolution).
  const LProc* unitNamed(const std::string& name) const {
    for (const auto& lp : out_.procs) {
      if (lp->proc->name == name) return lp.get();
    }
    return nullptr;
  }

  std::uint32_t intern(const std::string& name) {
    auto [it, fresh] = nameIds_.emplace(
        name, static_cast<std::uint32_t>(out_.names.size()));
    if (fresh) out_.names.push_back(name);
    return it->second;
  }

  int slotFor(LProc& p, const std::string& name) {
    auto it = p.slotOf.find(name);
    if (it != p.slotOf.end()) return it->second;
    const int idx = static_cast<int>(p.slots.size());
    p.slotOf.emplace(name, idx);
    SlotInfo si;
    si.name = intern(name);
    si.decl = p.proc->findDecl(name);
    const fortran::VarDecl* d = si.decl;
    if (d && !d->commonBlock.empty()) {
      auto [c, fresh] = commonIds_.emplace(d->commonBlock + "|" + name,
                                           out_.commons);
      if (fresh) ++out_.commons;
      si.common = c->second;
    }
    const TypeKind t = d ? d->type : fortran::implicitType(name);
    si.localType = t == TypeKind::DoublePrecision ? TypeKind::Real : t;
    si.isArray = d && d->isArray();
    si.isParameter = d && d->isParameter;
    p.slots.push_back(std::move(si));
    // Bounds and PARAMETER values may name other slots (or this one), so
    // they are lowered after the slot is registered.
    if (d) {
      std::vector<std::pair<int, int>> dims;
      for (const auto& dim : d->dims) {
        const int lo = dim.lower ? lowerExpr(p, *dim.lower) : -1;
        const int up = dim.upper ? lowerExpr(p, *dim.upper) : -1;
        dims.emplace_back(lo, up);
      }
      p.slots[static_cast<std::size_t>(idx)].dims = std::move(dims);
      if (d->isParameter && d->parameterValue) {
        const int v = lowerExpr(p, *d->parameterValue);
        p.slots[static_cast<std::size_t>(idx)].parameterValue = v;
      }
    }
    return idx;
  }

  int addNode(LProc& p, Node n) {
    p.nodes.push_back(n);
    return static_cast<int>(p.nodes.size()) - 1;
  }

  /// Lower `exprs` and store their node ids as one contiguous kids range.
  template <typename Range, typename Fn>
  std::pair<std::uint32_t, std::uint32_t> lowerList(LProc& p,
                                                    const Range& exprs,
                                                    Fn lowerOne) {
    std::vector<std::int32_t> ids;
    for (const auto& e : exprs) ids.push_back(lowerOne(*e));
    const auto first = static_cast<std::uint32_t>(p.kids.size());
    p.kids.insert(p.kids.end(), ids.begin(), ids.end());
    return {first, static_cast<std::uint32_t>(ids.size())};
  }

  int lowerExpr(LProc& p, const Expr& e) {
    Node n;
    n.expr = &e;
    switch (e.kind) {
      case ExprKind::IntConst:
        n.value = Value::ofInt(e.intValue);
        return addNode(p, n);
      case ExprKind::RealConst:
        n.value = Value::ofReal(e.realValue);
        return addNode(p, n);
      case ExprKind::LogicalConst:
        n.value = Value::ofLogical(e.logicalValue);
        return addNode(p, n);
      case ExprKind::StringConst:
        n.value = Value::ofReal(0.0);
        return addNode(p, n);
      case ExprKind::VarRef:
      case ExprKind::ArrayRef:
        return lowerRef(p, e);
      case ExprKind::FuncCall: {
        if (ir::isIntrinsic(e.name)) {
          n.k = Node::K::Intrinsic;
          n.op = static_cast<std::uint8_t>(intrinsicOf(e.name));
        } else {
          n.callee = unitNamed(e.name);
          n.k = n.callee ? Node::K::Call : Node::K::Undefined;
        }
        std::tie(n.first, n.count) = lowerList(
            p, e.args, [&](const Expr& a) { return lowerExpr(p, a); });
        return addNode(p, n);
      }
      case ExprKind::Unary: {
        n.k = Node::K::Unary;
        n.op = static_cast<std::uint8_t>(e.unOp);
        const std::int32_t operand = lowerExpr(p, *e.lhs);
        n.first = static_cast<std::uint32_t>(p.kids.size());
        n.count = 1;
        p.kids.push_back(operand);
        return addNode(p, n);
      }
      case ExprKind::Binary: {
        n.k = Node::K::Binary;
        n.op = static_cast<std::uint8_t>(e.binOp);
        const std::int32_t l = lowerExpr(p, *e.lhs);
        const std::int32_t r = lowerExpr(p, *e.rhs);
        n.first = static_cast<std::uint32_t>(p.kids.size());
        n.count = 2;
        p.kids.push_back(l);
        p.kids.push_back(r);
        return addNode(p, n);
      }
    }
    return addNode(p, n);
  }

  /// A storage reference: the named slot, plus subscripts unless the
  /// expression is a plain VarRef (which always denotes the base cell).
  int lowerRef(LProc& p, const Expr& e) {
    Node n;
    n.expr = &e;
    n.slot = slotFor(p, e.name);
    if (e.kind == ExprKind::VarRef) {
      n.k = Node::K::Var;
    } else {
      n.k = Node::K::Elem;
      std::tie(n.first, n.count) = lowerList(
          p, e.args, [&](const Expr& a) { return lowerExpr(p, a); });
    }
    return addNode(p, n);
  }

  void lowerProc(LProc& p) {
    for (const auto& param : p.proc->params) {
      p.paramSlots.push_back(slotFor(p, param));
    }
    p.resultSlot = slotFor(p, p.proc->name);
    // Declared names get slots even when the body never mentions them: a
    // LASTPRIVATE clause may still name one, and creating it evaluates its
    // bounds or PARAMETER value.
    for (const auto& d : p.proc->decls) slotFor(p, d.name);
    for (const auto& s : p.proc->body) lowerStmt(p, *s);
    Op ret;
    ret.k = Op::K::Ret;
    p.ops.push_back(ret);
    // Resolve label jumps; unknown labels fall to the final Ret.
    auto pcOfLabel = [&](int label) {
      auto it = labelPc_.find(label);
      return it != labelPc_.end() ? it->second
                                  : static_cast<int>(p.ops.size()) - 1;
    };
    for (Op& op : p.ops) {
      if (op.k == Op::K::Jump && op.b != 0) {
        op.a = pcOfLabel(op.b);
        op.b = 0;
      } else if (op.k == Op::K::ArithIf) {
        op.a = pcOfLabel(op.a);
        op.b = pcOfLabel(op.b);
        op.c = pcOfLabel(op.c);
      }
    }
    labelPc_.clear();
  }

  int counterFor(const Stmt& s) {
    auto [it, fresh] = counters_.emplace(
        &s, static_cast<int>(out_.counterStmt.size()));
    if (fresh) out_.counterStmt.push_back(s.id);
    return it->second;
  }

  int emit(LProc& p, Op::K k, const Stmt* s) {
    Op op;
    op.k = k;
    op.stmt = s;
    if (s) op.counter = counterFor(*s);
    p.ops.push_back(op);
    return static_cast<int>(p.ops.size()) - 1;
  }

  Op& at(LProc& p, int pc) { return p.ops[static_cast<std::size_t>(pc)]; }
  int here(const LProc& p) const { return static_cast<int>(p.ops.size()); }

  void lowerStmt(LProc& p, const Stmt& s) {
    if (s.label != 0) labelPc_[s.label] = here(p);
    auto anyExpr = [&](const Expr& e) { return lowerExpr(p, e); };
    auto refExpr = [&](const Expr& e) { return lowerRef(p, e); };
    switch (s.kind) {
      case StmtKind::Assign: {
        const int rhs = lowerExpr(p, *s.rhs);
        const int lhs = lowerRef(p, *s.lhs);
        Op& op = at(p, emit(p, Op::K::Assign, &s));
        op.x = lhs;
        op.y = rhs;
        return;
      }
      case StmtKind::Call: {
        Node n;
        n.callee = unitNamed(s.callee);
        n.k = n.callee ? Node::K::Call : Node::K::Undefined;
        std::tie(n.first, n.count) = lowerList(p, s.args, anyExpr);
        const int call = addNode(p, n);
        at(p, emit(p, Op::K::Call, &s)).x = call;
        return;
      }
      case StmtKind::Read: {
        const auto [first, count] = lowerList(p, s.args, refExpr);
        Op& op = at(p, emit(p, Op::K::Read, &s));
        op.first = first;
        op.count = count;
        return;
      }
      case StmtKind::Write: {
        std::vector<const Expr*> items;
        for (const auto& item : s.args) {
          if (item->kind != ExprKind::StringConst) items.push_back(item.get());
        }
        const auto [first, count] = lowerList(p, items, anyExpr);
        Op& op = at(p, emit(p, Op::K::Write, &s));
        op.first = first;
        op.count = count;
        return;
      }
      case StmtKind::Continue:
      case StmtKind::Assertion:
        emit(p, Op::K::Nop, &s);
        return;
      case StmtKind::Return:
        emit(p, Op::K::Ret, &s);
        return;
      case StmtKind::Stop:
        emit(p, Op::K::Stop, &s);
        return;
      case StmtKind::Goto:
        at(p, emit(p, Op::K::Jump, &s)).b = s.gotoTarget;  // resolved later
        return;
      case StmtKind::ArithmeticIf: {
        const int cond = lowerExpr(p, *s.condExpr);
        Op& op = at(p, emit(p, Op::K::ArithIf, &s));
        op.x = cond;
        op.a = s.aifLabels[0];
        op.b = s.aifLabels[1];
        op.c = s.aifLabels[2];
        return;
      }
      case StmtKind::If: {
        std::vector<int> endJumps;
        for (std::size_t i = 0; i < s.arms.size(); ++i) {
          const auto& arm = s.arms[i];
          int branchPc = -1;
          if (arm.condition) {
            const int cond = lowerExpr(p, *arm.condition);
            branchPc = emit(p, Op::K::Branch, &s);
            at(p, branchPc).x = cond;
          }
          for (const auto& b : arm.body) lowerStmt(p, *b);
          if (i + 1 < s.arms.size()) {
            endJumps.push_back(emit(p, Op::K::Jump, nullptr));
          }
          if (branchPc >= 0) at(p, branchPc).a = here(p);
        }
        for (int pc : endJumps) at(p, pc).a = here(p);
        return;
      }
      case StmtKind::Do: {
        const int loop = p.loopSlots++;
        const int iv = slotFor(p, s.doVar);
        const int lo = lowerExpr(p, *s.doLo);
        const int hi = lowerExpr(p, *s.doHi);
        const int step = s.doStep ? lowerExpr(p, *s.doStep) : -1;
        const int initPc = emit(p, Op::K::DoInit, &s);
        const int bodyPc = here(p);
        for (const auto& b : s.body) lowerStmt(p, *b);
        const int stepPc = emit(p, Op::K::DoStep, &s);
        at(p, stepPc).a = bodyPc;
        at(p, initPc).a = here(p);
        for (int pc : {initPc, stepPc}) {
          Op& op = at(p, pc);
          op.c = loop;
          op.iv = iv;
          op.lo = lo;
          op.hi = hi;
          op.step = step;
        }
        return;
      }
    }
  }

  const Program& program_;
  LoweredProgram& out_;
  std::unordered_map<std::string, std::uint32_t> nameIds_;
  std::unordered_map<std::string, int> commonIds_;
  std::unordered_map<const Stmt*, int> counters_;
  std::unordered_map<int, int> labelPc_;  // label -> pc, per procedure
};

// ---------------------------------------------------------------------------
// Race detection
// ---------------------------------------------------------------------------

/// Cross-iteration access tracking for one active PARALLEL DO. Shadow
/// cells are laid out densely per storage: the first touch of a storage in
/// an activation reserves storage.size() cells from a bump region, indexed
/// by the storage's serial. Cells carry the activation that initialized
/// them, so a new activation reuses the region without clearing it; the
/// written-this-iteration set is an epoch stamp per cell.
class ParallelCtx {
 public:
  const Stmt* loop = nullptr;
  /// Directive clauses supplied for this loop (null = none): conflicts on
  /// clause-privatized variables are resolved by the directive, like the
  /// induction variable's.
  const LoopClauses* clauses = nullptr;

  /// Start a fresh activation of `l`.
  void begin(const Stmt* l, const LoopClauses* c) {
    loop = l;
    clauses = c;
    iteration_ = 0;
    ++activation_;
    epoch_ = 1;
    for (std::uint64_t serial : touched_) regionOf_[serial] = 0;
    touched_.clear();
    used_ = 0;
    written_.clear();
  }

  void beginIteration(long long iter) {
    iteration_ = iter;
    ++epoch_;  // clears the written-this-iteration set
  }

  void onRead(const CellRef& c) {
    Cell& cell = cellAt(c);
    if (cell.writtenEpoch != epoch_ && !cell.hasReader) {
      cell.hasReader = true;
      cell.reader = iteration_;
    }
  }

  void onWrite(const CellRef& c, std::uint32_t var) {
    Cell& cell = cellAt(c);
    cell.writtenEpoch = epoch_;
    if (!cell.hasFirst) {
      cell.hasFirst = true;
      cell.first = iteration_;
      cell.firstVar = var;
      written_.emplace_back(c.storage->serial, c.offset);
    } else if (cell.first != iteration_ && !cell.hasSecond) {
      cell.hasSecond = true;
      cell.second = iteration_;
    }
  }

  /// The induction variable's cell is implicitly private.
  void markInduction(const CellRef& c) { cellAt(c).induction = true; }

  /// Report the activation's races, at most one per variable, walking the
  /// written cells in (storage serial, offset) order.
  void finish(std::vector<Race>& races,
              const std::vector<std::string>& names) {
    std::sort(written_.begin(), written_.end());
    std::vector<bool> reported(names.size(), false);
    for (const auto& [serial, offset] : written_) {
      const Cell& cell = cells_[regionOf_[serial] - 1 + offset];
      if (cell.induction) continue;
      const std::string& var = names[cell.firstVar];
      if (clauses && clauses->privatized.count(var)) continue;
      if (cell.hasReader && cell.reader != cell.first) {
        if (!reported[cell.firstVar]) {
          reported[cell.firstVar] = true;
          races.push_back({loop->id, var, cell.first, cell.reader, false});
        }
        continue;
      }
      if (cell.hasSecond && !reported[cell.firstVar]) {
        reported[cell.firstVar] = true;
        races.push_back({loop->id, var, cell.first, cell.second, true});
      }
    }
  }

 private:
  struct Cell {
    std::uint64_t activation = 0;
    std::uint64_t writtenEpoch = 0;
    long long first = 0;   // first writer's iteration
    long long second = 0;  // a later writer from another iteration
    long long reader = 0;  // first exposed reader's iteration
    std::uint32_t firstVar = 0;
    bool hasFirst = false, hasSecond = false, hasReader = false;
    bool induction = false;
  };

  Cell& cellAt(const CellRef& c) {
    const std::uint64_t serial = c.storage->serial;
    if (serial >= regionOf_.size()) regionOf_.resize(serial + 1, 0);
    std::size_t& region = regionOf_[serial];
    if (region == 0) {
      region = used_ + 1;
      touched_.push_back(serial);
      used_ += std::max<std::size_t>(c.storage->size(), 1);
      if (cells_.size() < used_) cells_.resize(used_);
    }
    Cell& cell = cells_[region - 1 + c.offset];
    if (cell.activation != activation_) {
      cell = Cell{};
      cell.activation = activation_;
    }
    return cell;
  }

  long long iteration_ = 0;
  std::uint64_t activation_ = 0;
  std::uint64_t epoch_ = 1;
  std::vector<std::size_t> regionOf_;  // serial -> first cell + 1
  std::vector<std::uint64_t> touched_;
  std::vector<Cell> cells_;
  std::size_t used_ = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> written_;
};

}  // namespace

struct Machine::Lowered : LoweredProgram {};

// ---------------------------------------------------------------------------
// The execution engine
// ---------------------------------------------------------------------------

struct Machine::Impl {
  const Lowered& low;
  const RunOptions& opts;
  RunResult result;
  std::size_t inputPos = 0;
  std::mt19937 rng;
  std::vector<long long> counts;  // per statement counter
  std::vector<Storage> commons;   // by COMMON member index
  std::vector<char> commonLive;
  /// Next Storage::serial; stamped at every storage creation so cell
  /// identities survive heap address reuse across call frames.
  std::uint64_t nextStorageSerial = 1;

  struct SlotState {
    Storage* storage = nullptr;  // resolved base; null until first touch
    std::size_t offset = 0;
    /// Evaluated shape; null = none (scalar formals, unresolved slots).
    const std::vector<long long>* extents = nullptr;
    const std::vector<long long>* lowerBounds = nullptr;
    bool bound = false;  // formal bound to an actual argument
    Storage local;       // backing store when the slot is a local
    /// Shape this frame evaluated itself (formal arrays).
    std::vector<long long> ownExtents, ownLowerBounds;
  };

  struct LoopState {
    long long trip = 0;
    long long k = 0;
    long long lo = 0;
    long long step = 1;
    bool parallel = false;
    std::vector<long long> perm;
    bool realIv = false;
    double rlo = 0.0, rstep = 1.0;
    /// Iteration-context node enclosing this loop (trace mode).
    std::int32_t ctxParent = -1;
    /// Directive clauses for this activation (null = none supplied).
    const LoopClauses* clauses = nullptr;
    /// LASTPRIVATE slots in name order, and the values staged at the end
    /// of the sequentially last iteration (empty = none staged). A name
    /// the procedure neither declares nor mentions has no slot: it would
    /// be an implicit scalar whose creation evaluates nothing and which
    /// nothing reads, so there is nothing to copy out.
    std::vector<int> lastSlots;
    std::vector<Value> lastVals;
  };

  struct Frame {
    const LProc* proc = nullptr;
    std::vector<SlotState> slots;
    std::vector<LoopState> loops;
    std::deque<Storage> temps;  // value actuals; deque keeps addresses
  };

  /// Race contexts by stack depth, reused across activations.
  std::vector<ParallelCtx> ctxPool;
  std::size_t ctxDepth = 0;  // active contexts: ctxPool[0, ctxDepth)

  /// Statement currently executing (runtime diagnostics and trace events
  /// are attributed to it).
  const Stmt* curStmt = nullptr;

  // --- Trace recording (dynamic dependence validation) -----------------
  Trace* trace = nullptr;
  /// Innermost active iteration-context node (-1 = outside any loop).
  std::int32_t curCtx = -1;
  /// Recording stopped because the node budget tripped: no further events
  /// may be attributed (their contexts would be missing or stale).
  bool traceDead = false;
  static constexpr std::uint32_t kNoElem = 0xffffffffu;
  /// Element ids per cell, laid out like the race shadow: the first traced
  /// touch of a storage reserves storage.size() ids, indexed by serial.
  std::vector<std::size_t> elemRegion;  // serial -> first id slot + 1
  std::vector<std::uint32_t> elemIds;
  std::vector<bool> writtenElems;    // by element id
  std::vector<bool> uninitReported;  // by element id

  Impl(const Lowered& l, const RunOptions& o)
      : low(l),
        opts(o),
        counts(l.counterStmt.size(), 0),
        commons(static_cast<std::size_t>(l.commons)),
        commonLive(static_cast<std::size_t>(l.commons), 0) {
    rng.seed(o.shuffleSeed);
    trace = o.trace;
  }

  /// Fold the dense counters into the result's per-statement profile.
  void foldCounts() {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > 0) result.stmtCounts[low.counterStmt[i]] += counts[i];
    }
  }

  ParallelCtx& ctxBack() { return ctxPool[ctxDepth - 1]; }

  void pushCtx(const Stmt* loop, const LoopClauses* clauses) {
    if (ctxDepth == ctxPool.size()) ctxPool.emplace_back();
    ctxPool[ctxDepth++].begin(loop, clauses);
  }

  /// Intern a fresh iteration node; kills the trace (degrade, don't lie)
  /// when the node budget is exhausted.
  std::int32_t traceNode(std::int32_t parent, fortran::StmtId loop,
                         long long iter) {
    if (!trace || traceDead) return parent;
    if (static_cast<long long>(trace->nodes.size()) >=
        2 * trace->limits.maxEvents) {
      trace->eventsOverflowed = true;
      traceDead = true;
      return parent;
    }
    trace->nodes.push_back({parent, loop, iter});
    return static_cast<std::int32_t>(trace->nodes.size()) - 1;
  }

  void traceAccess(const SlotInfo& si, const CellRef& c, bool isWrite) {
    if (!trace || traceDead) return;
    const std::uint64_t serial = c.storage->serial;
    if (serial >= elemRegion.size()) elemRegion.resize(serial + 1, 0);
    std::size_t region = elemRegion[serial];
    if (region == 0 || elemIds[region - 1 + c.offset] == kNoElem) {
      if (static_cast<long long>(trace->elementVar.size()) >=
          trace->limits.maxElements) {
        trace->elementsSaturated = true;
        ++trace->eventsDropped;
        return;
      }
      if (region == 0) {
        region = elemIds.size() + 1;
        elemRegion[serial] = region;
        elemIds.resize(elemIds.size() +
                           std::max<std::size_t>(c.storage->size(), 1),
                       kNoElem);
      }
      elemIds[region - 1 + c.offset] =
          static_cast<std::uint32_t>(trace->elementVar.size());
      trace->elementVar.push_back(low.names[si.name]);
      writtenElems.push_back(false);
      uninitReported.push_back(false);
    }
    const std::uint32_t elem = elemIds[region - 1 + c.offset];
    if (isWrite) {
      writtenElems[elem] = true;
    } else if (!writtenElems[elem]) {
      // First read of a never-written element: suspected uninitialized use
      // (PARAMETER constants materialize with their value and are exempt).
      if (!si.isParameter && !uninitReported[elem]) {
        uninitReported[elem] = true;
        ++trace->uninitReadCount;
        if (trace->uninitReads.size() < 64) {
          trace->uninitReads.push_back(
              {curStmt ? curStmt->id : fortran::kInvalidStmt,
               low.names[si.name]});
        }
      }
    }
    if (static_cast<long long>(trace->events.size()) >=
        trace->limits.maxEvents) {
      trace->eventsOverflowed = true;
      ++trace->eventsDropped;
      return;
    }
    trace->events.push_back({curStmt ? curStmt->id : fortran::kInvalidStmt,
                             elem, curCtx, isWrite});
  }

  // -------------------------------------------------------------------
  // Storage resolution
  // -------------------------------------------------------------------

  const Node& node(const Frame& f, int n) const {
    return f.proc->nodes[static_cast<std::size_t>(n)];
  }
  int kid(const Frame& f, std::uint32_t at) const {
    return f.proc->kids[at];
  }

  long long evalInt(Frame& f, int n) { return eval(f, n).asInt(); }

  void shapeFor(Frame& f, const SlotInfo& si, std::vector<long long>& extents,
                std::vector<long long>& lowerBounds) {
    extents.clear();
    lowerBounds.clear();
    for (const auto& [lower, upper] : si.dims) {
      long long lb = lower >= 0 ? evalInt(f, lower) : 1;
      long long ext = -1;
      if (upper >= 0) {
        ext = evalInt(f, upper) - lb + 1;
        if (ext < 0) ext = 0;
      }
      lowerBounds.push_back(lb);
      extents.push_back(ext);
    }
  }

  /// Resolve a slot's base cell and shape in a frame, creating the COMMON
  /// member or local on first touch. Bound formals are resolved at call
  /// time.
  SlotState& resolve(Frame& f, int slot) {
    SlotState& s = f.slots[static_cast<std::size_t>(slot)];
    if (s.storage) return s;
    const SlotInfo& si = f.proc->slots[static_cast<std::size_t>(slot)];
    if (si.common >= 0) {
      const auto idx = static_cast<std::size_t>(si.common);
      Storage& st = commons[idx];
      if (!commonLive[idx]) {
        const std::uint64_t serial = nextStorageSerial++;
        std::vector<long long> extents, lowerBounds;
        shapeFor(f, si, extents, lowerBounds);
        if (!commonLive[idx]) {
          st.serial = serial;
          st.type = si.decl->type == TypeKind::DoublePrecision
                        ? TypeKind::Real
                        : si.decl->type;
          std::size_t total = 1;
          for (long long e : extents) {
            total *= static_cast<std::size_t>(e < 0 ? 1 : e);
          }
          st.extents = std::move(extents);
          st.lowerBounds = std::move(lowerBounds);
          st.resize(total);
          commonLive[idx] = 1;
        } else {
          // The bounds' evaluation created the member itself; this frame
          // keeps the shape it evaluated.
          s.ownExtents = std::move(extents);
          s.ownLowerBounds = std::move(lowerBounds);
          s.storage = &st;
          s.extents = &s.ownExtents;
          s.lowerBounds = &s.ownLowerBounds;
          return s;
        }
      }
      s.storage = &st;
      s.extents = &st.extents;
      s.lowerBounds = &st.lowerBounds;
      return s;
    }
    // Local (created lazily).
    const std::uint64_t serial = nextStorageSerial++;
    std::vector<long long> extents, lowerBounds;
    if (si.isArray) shapeFor(f, si, extents, lowerBounds);
    std::size_t total = 1;
    for (long long e : extents) {
      if (e < 0) {
        throw RuntimeError{
            "local array " + low.names[si.name] + " has unknown extent",
            si.decl ? si.decl->loc : ps::SourceLoc{}};
      }
      total *= static_cast<std::size_t>(e);
    }
    Storage& st = s.local;
    st.serial = serial;
    st.type = si.localType;
    st.extents = std::move(extents);
    st.lowerBounds = std::move(lowerBounds);
    st.resize(total);
    s.storage = &st;
    s.extents = &st.extents;
    s.lowerBounds = &st.lowerBounds;
    // PARAMETER constants materialize with their value.
    if (si.parameterValue >= 0) st.store(0, eval(f, si.parameterValue));
    return s;
  }

  CellRef cellOf(Frame& f, const Node& ref) {
    SlotState& s = resolve(f, ref.slot);
    if (ref.k == Node::K::Var) return {s.storage, s.offset};
    // Column-major linearization.
    std::size_t flat = 0;
    std::size_t mult = 1;
    for (std::uint32_t d = 0; d < ref.count; ++d) {
      long long idx = evalInt(f, kid(f, ref.first + d));
      long long lb = 1, ext = -1;
      if (s.lowerBounds && d < s.lowerBounds->size()) {
        lb = (*s.lowerBounds)[d];
        ext = (*s.extents)[d];
      }
      long long rel = idx - lb;
      if (rel < 0 || (ext >= 0 && rel >= ext)) {
        throw RuntimeError{"subscript out of range for " + ref.expr->name +
                               ": " + std::to_string(idx),
                           ref.expr->loc};
      }
      flat += static_cast<std::size_t>(rel) * mult;
      if (ext >= 0) mult *= static_cast<std::size_t>(ext);
    }
    std::size_t off = s.offset + flat;
    if (off >= s.storage->size()) {
      // Assumed-size overrun of the underlying slab.
      throw RuntimeError{"subscript beyond storage of " + ref.expr->name,
                         ref.expr->loc};
    }
    return {s.storage, off};
  }

  const SlotInfo& info(const Frame& f, int slot) const {
    return f.proc->slots[static_cast<std::size_t>(slot)];
  }

  Value load(Frame& f, const Node& ref) {
    CellRef c = cellOf(f, ref);
    for (std::size_t i = 0; i < ctxDepth; ++i) ctxPool[i].onRead(c);
    if (trace) traceAccess(info(f, ref.slot), c, /*isWrite=*/false);
    return c.storage->load(c.offset);
  }

  /// Store through an already resolved cell of `slot`.
  void storeCell(Frame& f, int slot, const CellRef& c, const Value& v) {
    const SlotInfo& si = info(f, slot);
    for (std::size_t i = 0; i < ctxDepth; ++i) {
      ctxPool[i].onWrite(c, si.name);
    }
    if (trace) traceAccess(si, c, /*isWrite=*/true);
    c.storage->store(c.offset, v);
  }

  void store(Frame& f, const Node& ref, const Value& v) {
    storeCell(f, ref.slot, cellOf(f, ref), v);
  }

  CellRef baseOf(Frame& f, int slot) {
    SlotState& s = resolve(f, slot);
    return {s.storage, s.offset};
  }

  // -------------------------------------------------------------------
  // Expression evaluation
  // -------------------------------------------------------------------

  Value intrinsic(Frame& f, const Node& call) {
    auto arg = [&](std::size_t i) {
      return eval(f, kid(f, call.first + static_cast<std::uint32_t>(i)));
    };
    auto real1 = [&](double (*fn)(double)) {
      return Value::ofReal(fn(arg(0).asReal()));
    };
    const auto which = static_cast<Intrinsic>(call.op);
    switch (which) {
      case Intrinsic::Abs: {
        Value v = arg(0);
        return v.kind == Value::Kind::Int
                   ? Value::ofInt(std::llabs(v.i))
                   : Value::ofReal(std::fabs(v.asReal()));
      }
      case Intrinsic::Iabs: return Value::ofInt(std::llabs(arg(0).asInt()));
      case Intrinsic::Sqrt: return real1(std::sqrt);
      case Intrinsic::Sin: return real1(std::sin);
      case Intrinsic::Cos: return real1(std::cos);
      case Intrinsic::Tan: return real1(std::tan);
      case Intrinsic::Atan: return real1(std::atan);
      case Intrinsic::Exp: return real1(std::exp);
      case Intrinsic::Log: return real1(std::log);
      case Intrinsic::Log10: return real1(std::log10);
      case Intrinsic::Atan2:
        return Value::ofReal(std::atan2(arg(0).asReal(), arg(1).asReal()));
      case Intrinsic::Max:
      case Intrinsic::Amax1: {
        Value acc = arg(0);
        bool isInt = acc.kind == Value::Kind::Int && which != Intrinsic::Amax1;
        double best = acc.asReal();
        for (std::size_t i = 1; i < call.count; ++i) {
          Value v = arg(i);
          if (v.kind != Value::Kind::Int) isInt = false;
          best = std::max(best, v.asReal());
        }
        return isInt ? Value::ofInt(static_cast<long long>(best))
                     : Value::ofReal(best);
      }
      case Intrinsic::Min:
      case Intrinsic::Amin1: {
        Value acc = arg(0);
        bool isInt = acc.kind == Value::Kind::Int && which != Intrinsic::Amin1;
        double best = acc.asReal();
        for (std::size_t i = 1; i < call.count; ++i) {
          Value v = arg(i);
          if (v.kind != Value::Kind::Int) isInt = false;
          best = std::min(best, v.asReal());
        }
        return isInt ? Value::ofInt(static_cast<long long>(best))
                     : Value::ofReal(best);
      }
      case Intrinsic::Mod: {
        Value a = arg(0), b = arg(1);
        if (a.kind == Value::Kind::Int && b.kind == Value::Kind::Int) {
          if (b.i == 0) throw RuntimeError{"MOD by zero", call.expr->loc};
          return Value::ofInt(a.i % b.i);
        }
        return Value::ofReal(std::fmod(a.asReal(), b.asReal()));
      }
      case Intrinsic::Float: return Value::ofReal(arg(0).asReal());
      case Intrinsic::Int: return Value::ofInt(arg(0).asInt());
      case Intrinsic::Nint:
        return Value::ofInt(static_cast<long long>(std::llround(
            arg(0).asReal())));
      case Intrinsic::Sign:
      case Intrinsic::Isign: {
        Value a = arg(0), b = arg(1);
        double m = std::fabs(a.asReal());
        double v = b.asReal() >= 0 ? m : -m;
        return which == Intrinsic::Isign
                   ? Value::ofInt(static_cast<long long>(v))
                   : Value::ofReal(v);
      }
      case Intrinsic::Dim:
      case Intrinsic::Idim: {
        double v = std::max(0.0, arg(0).asReal() - arg(1).asReal());
        return which == Intrinsic::Idim
                   ? Value::ofInt(static_cast<long long>(v))
                   : Value::ofReal(v);
      }
      case Intrinsic::Unknown:
        break;
    }
    throw RuntimeError{"unknown intrinsic " + call.expr->name,
                       call.expr->loc};
  }

  Value eval(Frame& f, int n) {
    const Node& e = node(f, n);
    switch (e.k) {
      case Node::K::Const: return e.value;
      case Node::K::Var:
      case Node::K::Elem:
        return load(f, e);
      case Node::K::Intrinsic: return intrinsic(f, e);
      case Node::K::Call: return callProcedure(f, e, /*isFunction=*/true);
      case Node::K::Undefined:
        throw RuntimeError{"call to undefined function " + e.expr->name,
                           e.expr->loc};
      case Node::K::Unary: {
        Value v = eval(f, kid(f, e.first));
        switch (static_cast<UnOp>(e.op)) {
          case UnOp::Plus: return v;
          case UnOp::Neg:
            return v.kind == Value::Kind::Int ? Value::ofInt(-v.i)
                                              : Value::ofReal(-v.asReal());
          case UnOp::Not: return Value::ofLogical(!v.asLogical());
        }
        return v;
      }
      case Node::K::Binary: {
        // Short-circuit-free Fortran semantics; evaluate both sides.
        Value l = eval(f, kid(f, e.first));
        Value r = eval(f, kid(f, e.first + 1));
        const bool bothInt =
            l.kind == Value::Kind::Int && r.kind == Value::Kind::Int;
        switch (static_cast<BinOp>(e.op)) {
          case BinOp::Add:
            return bothInt ? Value::ofInt(l.i + r.i)
                           : Value::ofReal(l.asReal() + r.asReal());
          case BinOp::Sub:
            return bothInt ? Value::ofInt(l.i - r.i)
                           : Value::ofReal(l.asReal() - r.asReal());
          case BinOp::Mul:
            return bothInt ? Value::ofInt(l.i * r.i)
                           : Value::ofReal(l.asReal() * r.asReal());
          case BinOp::Div:
            if (bothInt) {
              if (r.i == 0) throw RuntimeError{"integer division by zero",
                                               e.expr->loc};
              return Value::ofInt(l.i / r.i);
            }
            return Value::ofReal(l.asReal() / r.asReal());
          case BinOp::Pow:
            if (bothInt && r.i >= 0) {
              long long acc = 1;
              for (long long k = 0; k < r.i; ++k) acc *= l.i;
              return Value::ofInt(acc);
            }
            return Value::ofReal(std::pow(l.asReal(), r.asReal()));
          case BinOp::Lt: return Value::ofLogical(l.asReal() < r.asReal());
          case BinOp::Le: return Value::ofLogical(l.asReal() <= r.asReal());
          case BinOp::Gt: return Value::ofLogical(l.asReal() > r.asReal());
          case BinOp::Ge: return Value::ofLogical(l.asReal() >= r.asReal());
          case BinOp::Eq: return Value::ofLogical(l.asReal() == r.asReal());
          case BinOp::Ne: return Value::ofLogical(l.asReal() != r.asReal());
          case BinOp::And:
            return Value::ofLogical(l.asLogical() && r.asLogical());
          case BinOp::Or:
            return Value::ofLogical(l.asLogical() || r.asLogical());
          case BinOp::Eqv:
            return Value::ofLogical(l.asLogical() == r.asLogical());
          case BinOp::Neqv:
            return Value::ofLogical(l.asLogical() != r.asLogical());
        }
        return l;
      }
    }
    return Value::ofReal(0.0);
  }

  // -------------------------------------------------------------------
  // Calls
  // -------------------------------------------------------------------

  Frame makeFrame(const LProc& proc) {
    Frame f;
    f.proc = &proc;
    f.slots.resize(proc.slots.size());
    f.loops.resize(static_cast<std::size_t>(proc.loopSlots));
    return f;
  }

  /// Call `call.callee` with the actuals in `call`'s children. Function
  /// calls return the callee's result variable.
  Value callProcedure(Frame& caller, const Node& call, bool isFunction) {
    const LProc& callee = *call.callee;
    Frame f = makeFrame(callee);
    // Bind formals.
    const std::size_t n =
        std::min<std::size_t>(callee.paramSlots.size(), call.count);
    for (std::size_t i = 0; i < n; ++i) {
      const int a = kid(caller, call.first + static_cast<std::uint32_t>(i));
      const Node& actual = node(caller, a);
      CellRef cell;
      if (actual.k == Node::K::Var) {
        cell = baseOf(caller, actual.slot);
      } else if (actual.k == Node::K::Elem) {
        cell = cellOf(caller, actual);
      } else {
        // Value actual: a fresh temp cell.
        Value v = eval(caller, a);
        f.temps.emplace_back();
        Storage& st = f.temps.back();
        st.serial = nextStorageSerial++;
        st.type = (v.kind == Value::Kind::Int) ? TypeKind::Integer
                                               : TypeKind::Real;
        st.resize(1);
        st.store(0, v);
        cell = {&st, 0};
      }
      SlotState& s = f.slots[static_cast<std::size_t>(callee.paramSlots[i])];
      s.storage = cell.storage;
      s.offset = cell.offset;
      s.bound = true;
    }
    // Evaluate formal array shapes (dims may reference other formals).
    for (int slot : callee.paramSlots) {
      const SlotInfo& si = info(f, slot);
      SlotState& s = f.slots[static_cast<std::size_t>(slot)];
      if (si.isArray && s.bound) {
        std::vector<long long> extents, lowerBounds;
        shapeFor(f, si, extents, lowerBounds);
        s.ownExtents = std::move(extents);
        s.ownLowerBounds = std::move(lowerBounds);
        s.extents = &s.ownExtents;
        s.lowerBounds = &s.ownLowerBounds;
      }
    }
    execute(f);
    if (isFunction) {
      // Function result lives in the variable named after the function.
      CellRef cell = baseOf(f, callee.resultSlot);
      return cell.storage->load(cell.offset);
    }
    return Value::ofReal(0.0);
  }

  // -------------------------------------------------------------------
  // Statement execution
  // -------------------------------------------------------------------

  Value nextInput() {
    if (opts.input.empty()) {
      double v = static_cast<double>((inputPos % 97) + 1);
      ++inputPos;
      return Value::ofReal(v);
    }
    double v = opts.input[inputPos % opts.input.size()];
    ++inputPos;
    return Value::ofReal(v);
  }

  /// Snapshot the LASTPRIVATE variables' cells. Called right after the
  /// sequentially-last iteration finishes executing (whenever the shuffle
  /// scheduled it); raw cell access so the runtime bookkeeping itself never
  /// feeds the race detector or the trace.
  void captureLastPrivate(Frame& f, LoopState& ls) {
    if (ls.lastSlots.empty()) return;
    ls.lastVals.clear();
    for (int slot : ls.lastSlots) {
      CellRef c = baseOf(f, slot);
      ls.lastVals.push_back(c.storage->load(c.offset));
    }
  }

  void setLoopVar(Frame& f, const Op& op, LoopState& ls, long long k) {
    long long idx = ls.perm.empty() ? k : ls.perm[static_cast<std::size_t>(k)];
    if (ls.parallel && ctxDepth > 0 && ctxBack().loop == op.stmt) {
      ctxBack().beginIteration(idx);
    }
    // Register the induction variable's cell as implicitly private in
    // every active parallel context (a parallel DO privatizes its own IV;
    // inner sequential IVs are killed every iteration, so their write-write
    // conflicts are benign).
    const CellRef c = baseOf(f, op.iv);
    for (std::size_t i = 0; i < ctxDepth; ++i) ctxPool[i].markInduction(c);
    if (ls.realIv) {
      storeCell(f, op.iv, c,
                Value::ofReal(ls.rlo + static_cast<double>(idx) * ls.rstep));
    } else {
      storeCell(f, op.iv, c, Value::ofInt(ls.lo + idx * ls.step));
    }
  }

  void doInit(Frame& f, const Op& op, std::size_t& pc) {
    LoopState& ls = f.loops[static_cast<std::size_t>(op.c)];
    const Stmt& s = *op.stmt;
    Value lo = eval(f, op.lo);
    Value hi = eval(f, op.hi);
    Value st = op.step >= 0 ? eval(f, op.step) : Value::ofInt(1);
    ls.realIv = (lo.kind != Value::Kind::Int ||
                 hi.kind != Value::Kind::Int ||
                 st.kind != Value::Kind::Int);
    if (ls.realIv) {
      ls.rlo = lo.asReal();
      ls.rstep = st.asReal();
      if (ls.rstep == 0.0) {
        throw RuntimeError{"zero DO step", s.loc};
      }
      ls.trip = static_cast<long long>(
          std::floor((hi.asReal() - ls.rlo + ls.rstep) / ls.rstep));
    } else {
      ls.lo = lo.asInt();
      ls.step = st.asInt();
      if (ls.step == 0) throw RuntimeError{"zero DO step", s.loc};
      ls.trip = (hi.asInt() - ls.lo + ls.step) / ls.step;
    }
    if (ls.trip < 0) ls.trip = 0;
    ls.k = 0;
    // Read at run time, never lowered: relative validation flips the
    // marking between runs of one Machine.
    ls.parallel = s.isParallel && opts.checkParallel;
    ls.perm.clear();
    ls.clauses = nullptr;
    ls.lastSlots.clear();
    ls.lastVals.clear();
    if (ls.parallel && ls.trip > 1) {
      ls.perm.resize(static_cast<std::size_t>(ls.trip));
      for (long long i = 0; i < ls.trip; ++i) {
        ls.perm[static_cast<std::size_t>(i)] = i;
      }
      std::shuffle(ls.perm.begin(), ls.perm.end(), rng);
    }
    if (ls.parallel) {
      // Drop a stale context for the same loop (GOTO exits).
      while (ctxDepth > 0 && ctxBack().loop == &s) --ctxDepth;
      auto itC = opts.parallelClauses.find(s.id);
      if (itC != opts.parallelClauses.end()) {
        ls.clauses = &itC->second;
        for (const std::string& name : ls.clauses->lastPrivate) {
          auto slot = f.proc->slotOf.find(name);
          if (slot != f.proc->slotOf.end()) {
            ls.lastSlots.push_back(slot->second);
          }
        }
      }
      pushCtx(&s, ls.clauses);
    }
    if (trace) {
      // A GOTO may have exited an earlier activation of this loop
      // without popping its context; re-entry resets to that stale
      // activation's parent so contexts cannot nest spuriously.
      for (std::int32_t n = curCtx; n >= 0;) {
        const IterNode& node = trace->nodes[static_cast<std::size_t>(n)];
        if (node.loop == s.id) {
          curCtx = node.parent;
          break;
        }
        n = node.parent;
      }
      ls.ctxParent = curCtx;
    }
    if (ls.trip == 0) {
      if (ls.parallel) --ctxDepth;
      pc = static_cast<std::size_t>(op.a);
    } else {
      if (trace) curCtx = traceNode(ls.ctxParent, s.id, 0);
      setLoopVar(f, op, ls, 0);
      ++pc;
    }
  }

  void doStep(Frame& f, const Op& op, std::size_t& pc) {
    LoopState& ls = f.loops[static_cast<std::size_t>(op.c)];
    // The iteration indexed by the current ls.k just finished; if it
    // was the sequentially-last one, stage the LASTPRIVATE values now.
    if (ls.parallel && ls.clauses && ls.k < ls.trip) {
      const long long idx =
          ls.perm.empty() ? ls.k : ls.perm[static_cast<std::size_t>(ls.k)];
      if (idx == ls.trip - 1) captureLastPrivate(f, ls);
    }
    ++ls.k;
    if (ls.k < ls.trip) {
      if (trace) curCtx = traceNode(ls.ctxParent, op.stmt->id, ls.k);
      setLoopVar(f, op, ls, ls.k);
      pc = static_cast<std::size_t>(op.a);
      return;
    }
    // Loop exhausted: subsequent events are outside its iterations.
    if (trace) curCtx = ls.ctxParent;
    // Final induction value (Fortran leaves lo + trip*step).
    const CellRef c = baseOf(f, op.iv);
    if (ls.realIv) {
      storeCell(f, op.iv, c,
                Value::ofReal(ls.rlo +
                              static_cast<double>(ls.trip) * ls.rstep));
    } else {
      storeCell(f, op.iv, c, Value::ofInt(ls.lo + ls.trip * ls.step));
    }
    if (ls.parallel && ctxDepth > 0 && ctxBack().loop == op.stmt) {
      ctxBack().finish(result.races, low.names);
      --ctxDepth;
    }
    // LASTPRIVATE copy-out: the sequentially-last iteration's values win,
    // whatever order the shuffle executed.
    if (!ls.lastVals.empty()) {
      for (std::size_t i = 0; i < ls.lastVals.size(); ++i) {
        CellRef cell = baseOf(f, ls.lastSlots[i]);
        cell.storage->store(cell.offset, ls.lastVals[i]);
      }
      ls.lastVals.clear();
    }
    ++pc;
  }

  void execute(Frame& f) {
    const std::vector<Op>& ops = f.proc->ops;
    // A RETURN inside a DO must not leak the callee's iteration contexts
    // into the caller's subsequent events.
    const std::int32_t entryCtx = curCtx;
    std::size_t pc = 0;
    while (pc < ops.size()) {
      const Op& op = ops[pc];
      if (op.stmt) curStmt = op.stmt;
      if (++result.steps > opts.maxSteps) {
        throw RuntimeError{"step limit exceeded",
                           op.stmt ? op.stmt->loc : ps::SourceLoc{}};
      }
      if (op.counter >= 0) ++counts[static_cast<std::size_t>(op.counter)];
      switch (op.k) {
        case Op::K::Assign: {
          Value v = eval(f, op.y);
          store(f, node(f, op.x), v);
          ++pc;
          break;
        }
        case Op::K::Call: {
          const Node& call = node(f, op.x);
          if (call.k == Node::K::Undefined) {
            throw RuntimeError{
                "call to undefined subroutine " + op.stmt->callee,
                op.stmt->loc};
          }
          callProcedure(f, call, /*isFunction=*/false);
          ++pc;
          break;
        }
        case Op::K::Read:
          for (std::uint32_t i = 0; i < op.count; ++i) {
            Value v = nextInput();
            store(f, node(f, kid(f, op.first + i)), v);
          }
          ++pc;
          break;
        case Op::K::Write:
          for (std::uint32_t i = 0; i < op.count; ++i) {
            result.output.push_back(eval(f, kid(f, op.first + i)).asReal());
          }
          ++pc;
          break;
        case Op::K::Nop:
          ++pc;
          break;
        case Op::K::Branch:
          if (!eval(f, op.x).asLogical()) {
            pc = static_cast<std::size_t>(op.a);
          } else {
            ++pc;
          }
          break;
        case Op::K::Jump:
          pc = static_cast<std::size_t>(op.a);
          break;
        case Op::K::ArithIf: {
          double v = eval(f, op.x).asReal();
          pc = static_cast<std::size_t>(v < 0 ? op.a : (v == 0 ? op.b
                                                               : op.c));
          break;
        }
        case Op::K::DoInit:
          doInit(f, op, pc);
          break;
        case Op::K::DoStep:
          doStep(f, op, pc);
          break;
        case Op::K::Ret:
          curCtx = entryCtx;
          return;
        case Op::K::Stop:
          // unwinds to run()
          throw StopSignal{op.stmt ? op.stmt->id : fortran::kInvalidStmt};
      }
    }
  }
};

bool RunResult::outputEquals(const RunResult& other, double tol) const {
  if (output.size() != other.output.size()) return false;
  for (std::size_t i = 0; i < output.size(); ++i) {
    double a = output[i], b = other.output[i];
    double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    if (std::fabs(a - b) > tol * scale) return false;
  }
  return true;
}

Machine::Machine(const Program& program) {
  auto lowered = std::make_shared<Lowered>();
  Lowerer(program, *lowered).run();
  lowered_ = std::move(lowered);
}

RunResult Machine::run(const RunOptions& opts) {
  Impl impl(*lowered_, opts);
  if (!lowered_->main) {
    impl.result.error = "no PROGRAM unit";
    return std::move(impl.result);
  }
  Impl::Frame frame = impl.makeFrame(*lowered_->main);
  try {
    impl.execute(frame);
    impl.result.ok = true;
  } catch (const StopSignal& s) {
    impl.result.ok = true;  // STOP
    impl.result.stopStmt = s.stmt;
  } catch (const RuntimeError& e) {
    impl.result.ok = false;
    impl.result.error = e.message;
    impl.result.errorLoc = e.loc;
    impl.result.errorStmt =
        impl.curStmt ? impl.curStmt->id : fortran::kInvalidStmt;
  }
  impl.foldCounts();
  return std::move(impl.result);
}

}  // namespace ps::interp
