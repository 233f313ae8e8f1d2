#include "hls/ir.hpp"

#include <sstream>

namespace csfma {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::Input: return "input";
    case OpKind::Const: return "const";
    case OpKind::Output: return "output";
    case OpKind::Add: return "add";
    case OpKind::Sub: return "sub";
    case OpKind::Mul: return "mul";
    case OpKind::Div: return "div";
    case OpKind::Neg: return "neg";
    case OpKind::Fma: return "fma";
    case OpKind::Dot: return "dot";
    case OpKind::CvtToCs: return "cvt_to_cs";
    case OpKind::CvtFromCs: return "cvt_from_cs";
  }
  return "?";
}

namespace {

int expected_arity(OpKind k) {
  switch (k) {
    case OpKind::Input:
    case OpKind::Const:
      return 0;
    case OpKind::Output:
    case OpKind::Neg:
    case OpKind::CvtToCs:
    case OpKind::CvtFromCs:
      return 1;
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Mul:
    case OpKind::Div:
      return 2;
    case OpKind::Fma:
      return 3;
    case OpKind::Dot:
      return -1;  // variadic: an even number >= 2 of args
  }
  return -1;
}

bool arity_ok(OpKind k, int n) {
  if (k == OpKind::Dot) return n >= 2 && n % 2 == 0;
  return n == expected_arity(k);
}

}  // namespace

int Cdfg::add_input(const std::string& name) {
  Node n;
  n.id = (int)nodes_.size();
  n.kind = OpKind::Input;
  n.name = name;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int Cdfg::add_const(double v) {
  Node n;
  n.id = (int)nodes_.size();
  n.kind = OpKind::Const;
  n.const_value = v;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int Cdfg::add_output(const std::string& name, int value) {
  Node n;
  n.id = (int)nodes_.size();
  n.kind = OpKind::Output;
  n.name = name;
  n.args = {value};
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int Cdfg::add_op(OpKind kind, std::vector<int> args, FmaStyle style) {
  CSFMA_CHECK(arity_ok(kind, (int)args.size()));
  for (int a : args) CSFMA_CHECK(a >= 0 && a < (int)nodes_.size());
  Node n;
  n.id = (int)nodes_.size();
  n.kind = kind;
  n.args = std::move(args);
  n.style = style;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

const Node& Cdfg::node(int id) const {
  CSFMA_CHECK(id >= 0 && id < (int)nodes_.size());
  return nodes_[(size_t)id];
}

Node& Cdfg::node(int id) {
  CSFMA_CHECK(id >= 0 && id < (int)nodes_.size());
  return nodes_[(size_t)id];
}

std::vector<int> Cdfg::live_nodes() const {
  std::vector<int> out;
  for (const auto& n : nodes_)
    if (!n.dead) out.push_back(n.id);
  return out;
}

std::vector<int> Cdfg::topo_order() const {
  // Iterative DFS post-order over args: works even after transform passes
  // appended nodes out of creation order.
  std::vector<int> order;
  order.reserve(nodes_.size());
  std::vector<std::uint8_t> state(nodes_.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<int> stack;
  for (const auto& root : nodes_) {
    if (root.dead || state[(size_t)root.id] != 0) continue;
    stack.push_back(root.id);
    while (!stack.empty()) {
      int id = stack.back();
      if (state[(size_t)id] == 2) {
        stack.pop_back();
        continue;
      }
      if (state[(size_t)id] == 1) {
        state[(size_t)id] = 2;
        order.push_back(id);
        stack.pop_back();
        continue;
      }
      state[(size_t)id] = 1;
      for (int a : nodes_[(size_t)id].args) {
        CSFMA_CHECK_MSG(!nodes_[(size_t)a].dead,
                        "live node references a dead node");
        CSFMA_CHECK_MSG(state[(size_t)a] != 1, "cycle in CDFG");
        if (state[(size_t)a] == 0) stack.push_back(a);
      }
    }
  }
  return order;
}

std::vector<int> Cdfg::users(int id) const {
  std::vector<int> out;
  for (const auto& n : nodes_) {
    if (n.dead) continue;
    for (int a : n.args)
      if (a == id) out.push_back(n.id);
  }
  return out;
}

void Cdfg::replace_uses(int old_id, int new_id) {
  CSFMA_CHECK(old_id != new_id);
  for (auto& n : nodes_) {
    if (n.dead) continue;
    for (auto& a : n.args)
      if (a == old_id) a = new_id;
  }
}

void Cdfg::mark_dead(int id) { node(id).dead = true; }

int Cdfg::prune_dead() {
  std::vector<bool> reachable(nodes_.size(), false);
  std::vector<int> work;
  for (const auto& n : nodes_) {
    if (!n.dead && n.kind == OpKind::Output) {
      reachable[(size_t)n.id] = true;
      work.push_back(n.id);
    }
  }
  while (!work.empty()) {
    int id = work.back();
    work.pop_back();
    for (int a : nodes_[(size_t)id].args) {
      if (!reachable[(size_t)a]) {
        reachable[(size_t)a] = true;
        work.push_back(a);
      }
    }
  }
  int removed = 0;
  for (auto& n : nodes_) {
    if (!n.dead && !reachable[(size_t)n.id] && n.kind != OpKind::Output) {
      n.dead = true;
      ++removed;
    }
  }
  return removed;
}

ValueType Cdfg::value_type(int id) const {
  const Node& n = node(id);
  switch (n.kind) {
    case OpKind::Fma:
    case OpKind::Dot:
    case OpKind::CvtToCs:
      return ValueType::Cs;
    default:
      return ValueType::Ieee;
  }
}

void Cdfg::validate() const {
  for (const auto& n : nodes_) {
    if (n.dead) continue;
    CSFMA_CHECK_MSG(arity_ok(n.kind, n.arity()), csfma::to_string(n.kind));
    for (int a : n.args) {
      CSFMA_CHECK_MSG(a >= 0 && a < (int)nodes_.size(), "dangling arg");
      CSFMA_CHECK_MSG(!node(a).dead, "use of a dead node");
    }
    // Typing rules.
    auto expect = [&](int arg, ValueType t) {
      CSFMA_CHECK_MSG(value_type(arg) == t,
                      "type mismatch at node " << n.id << " ("
                                               << csfma::to_string(n.kind) << ")");
    };
    switch (n.kind) {
      case OpKind::Fma:
        CSFMA_CHECK(n.style != FmaStyle::None);
        expect(n.args[0], ValueType::Cs);   // A
        expect(n.args[1], ValueType::Ieee); // B
        expect(n.args[2], ValueType::Cs);   // C
        // CS producers feeding a Fma must agree on the style.
        for (int idx : {0, 2}) {
          const Node& p = node(n.args[(size_t)idx]);
          CSFMA_CHECK_MSG(p.style == n.style, "mixed PCS/FCS chain");
        }
        break;
      case OpKind::Dot:
        // The fused dot product is a PCS back-end unit.
        CSFMA_CHECK(n.style == FmaStyle::Pcs);
        for (int a : n.args) expect(a, ValueType::Ieee);
        break;
      case OpKind::CvtToCs:
        CSFMA_CHECK(n.style != FmaStyle::None);
        expect(n.args[0], ValueType::Ieee);
        break;
      case OpKind::CvtFromCs:
        CSFMA_CHECK(n.style != FmaStyle::None);
        expect(n.args[0], ValueType::Cs);
        CSFMA_CHECK_MSG(node(n.args[0]).style == n.style, "mixed PCS/FCS chain");
        break;
      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::Div:
      case OpKind::Neg:
      case OpKind::Output:
        for (int a : n.args) expect(a, ValueType::Ieee);
        break;
      case OpKind::Input:
      case OpKind::Const:
        break;
    }
  }
}

int Cdfg::count(OpKind kind) const {
  int n = 0;
  for (const auto& nd : nodes_)
    if (!nd.dead && nd.kind == kind) ++n;
  return n;
}

std::string Cdfg::to_string() const {
  std::ostringstream os;
  for (const auto& n : nodes_) {
    if (n.dead) continue;
    os << "%" << n.id << " = " << csfma::to_string(n.kind);
    if (n.kind == OpKind::Const) os << " " << n.const_value;
    if (!n.name.empty()) os << " @" << n.name;
    for (int a : n.args) os << " %" << a;
    if (n.style == FmaStyle::Pcs) os << " [pcs]";
    if (n.style == FmaStyle::Fcs) os << " [fcs]";
    os << "\n";
  }
  return os.str();
}

std::string Cdfg::to_dot(const std::string& graph_name) const {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n  rankdir=TB;\n";
  for (const auto& n : nodes_) {
    if (n.dead) continue;
    os << "  n" << n.id << " [label=\"" << csfma::to_string(n.kind);
    if (!n.name.empty()) os << "\\n" << n.name;
    if (n.kind == OpKind::Const) os << "\\n" << n.const_value;
    os << "\"";
    if (n.kind == OpKind::Fma || n.kind == OpKind::Dot)
      os << ", shape=box, style=filled, fillcolor=lightblue";
    else if (n.kind == OpKind::CvtToCs || n.kind == OpKind::CvtFromCs)
      os << ", shape=diamond";
    os << "];\n";
    for (int a : n.args) {
      os << "  n" << a << " -> n" << n.id;
      if (value_type(a) == ValueType::Cs) os << " [penwidth=2.5]";
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

Cdfg rebuild_topo(const Cdfg& g) {
  Cdfg out;
  std::vector<int> remap((size_t)g.num_nodes(), -1);
  for (int id : g.topo_order()) {
    const Node& n = g.node(id);
    std::vector<int> args;
    args.reserve(n.args.size());
    for (int a : n.args) {
      CSFMA_CHECK(remap[(size_t)a] >= 0);
      args.push_back(remap[(size_t)a]);
    }
    int nid;
    switch (n.kind) {
      case OpKind::Input:
        nid = out.add_input(n.name);
        break;
      case OpKind::Const:
        nid = out.add_const(n.const_value);
        break;
      case OpKind::Output:
        nid = out.add_output(n.name, args[0]);
        break;
      default:
        nid = out.add_op(n.kind, std::move(args), n.style);
        break;
    }
    remap[(size_t)id] = nid;
  }
  return out;
}

}  // namespace csfma
