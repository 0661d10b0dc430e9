#include "core/tree_io.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/read_all.hpp"

namespace scalparc::core {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tree_io: " + what);
}

// Every parse error names the 1-based line it found the problem on, so a
// rejected snapshot (the serve ingestion path) is diagnosable without a hex
// dump of the file.
[[noreturn]] void fail_at(int line, const std::string& what) {
  fail(what + " (line " + std::to_string(line) + ")");
}

std::string double_to_hex(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

double hex_to_double(const std::string& text, int line) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    fail_at(line, "bad threshold '" + text + "'");
  }
  return value;
}

// The number of '\n' bytes in `text`, summed in blocks of 255 into a byte
// counter: a loop compilers vectorize, so it runs at memory speed.
std::size_t count_newlines(std::string_view text) {
  std::size_t newlines = 0;
  while (!text.empty()) {
    const std::size_t block = std::min<std::size_t>(text.size(), 255);
    std::uint8_t in_block = 0;
    for (std::size_t i = 0; i < block; ++i) in_block += text[i] == '\n';
    newlines += in_block;
    text.remove_prefix(block);
  }
  return newlines;
}

// Line-at-a-time reader over the whole input, tracking the current line
// number. Lines are split as std::getline splits them (a last line without
// '\n' still counts) and lose one trailing '\r'. The format is
// line-oriented (one node per line), so structural errors always have a
// well-defined location.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  bool next(std::string_view& out) {
    if (rest_.empty()) return false;
    const std::size_t newline = std::min(rest_.find('\n'), rest_.size());
    out = rest_.substr(0, newline);
    rest_.remove_prefix(std::min(newline + 1, rest_.size()));
    if (!out.empty() && out.back() == '\r') out.remove_suffix(1);
    ++line_;
    return true;
  }

  int line() const { return line_; }

  // How many lines next() has yet to return.
  std::size_t lines_left() const {
    return count_newlines(rest_) +
           (!rest_.empty() && rest_.back() != '\n' ? 1 : 0);
  }

 private:
  std::string_view rest_;
  int line_ = 0;
};

// The fields of one line, read in place: a field is a run of non-space
// characters (whitespace as the classic locale defines it); a number field is
// an optional sign and decimal digits, and nothing else ("5x" is not a
// number).
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  bool word(std::string_view& out) {
    skip_space();
    if (rest_.empty()) return false;
    std::size_t length = 0;
    while (length < rest_.size() && !is_space(rest_[length])) ++length;
    out = rest_.substr(0, length);
    rest_.remove_prefix(length);
    return true;
  }

  bool word(std::string& out) {
    std::string_view view;
    if (!word(view)) return false;
    out.assign(view);
    return true;
  }

  template <typename T>
  bool number(T& out) {
    skip_space();
    const char* first = rest_.data();
    const char* const last = first + rest_.size();
    // A leading '+' is accepted as `>>` accepts it; std::from_chars takes
    // only a '-'.
    if (last - first > 1 && first[0] == '+' && first[1] >= '0' &&
        first[1] <= '9') {
      ++first;
    }
    const std::from_chars_result result = std::from_chars(first, last, out);
    if (result.ec != std::errc() ||
        (result.ptr != last && !is_space(*result.ptr))) {
      return false;
    }
    rest_.remove_prefix(static_cast<std::size_t>(result.ptr - rest_.data()));
    return true;
  }

  // True when only whitespace is left.
  bool done() {
    skip_space();
    return rest_.empty();
  }

 private:
  static bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  void skip_space() {
    while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
  }

  std::string_view rest_;
};

// True when `text` contains nothing but whitespace.
bool blank(std::string_view text) {
  return text.find_first_not_of(" \t") == std::string_view::npos;
}

}  // namespace

void save_tree(const DecisionTree& tree, std::ostream& out) {
  const data::Schema& schema = tree.schema();
  out << "scalparc-tree v1\n";
  out << "classes " << schema.num_classes() << '\n';
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const data::AttributeInfo& info = schema.attribute(a);
    if (info.kind == data::AttributeKind::kContinuous) {
      out << "attr " << info.name << " cont\n";
    } else {
      out << "attr " << info.name << " cat " << info.cardinality << '\n';
    }
  }
  out << "nodes " << tree.num_nodes() << '\n';
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const TreeNode& node = tree.node(id);
    out << "node " << id << ' ';
    if (node.is_leaf) {
      out << "leaf";
    } else {
      out << (node.split.kind == data::AttributeKind::kContinuous ? "cont"
                                                                  : "cat");
    }
    out << ' ' << node.depth << ' ' << node.num_records << ' '
        << node.majority_class;
    for (const std::int64_t count : node.class_counts) out << ' ' << count;
    if (!node.is_leaf) {
      out << ' ' << node.split.attribute;
      if (node.split.kind == data::AttributeKind::kContinuous) {
        out << ' ' << double_to_hex(node.split.threshold);
      } else {
        out << ' ' << node.split.num_children;
        for (const std::int32_t slot : node.split.value_to_child) {
          out << ' ' << slot;
        }
      }
      for (const int child : node.children) out << ' ' << child;
    }
    out << '\n';
  }
}

void save_tree_file(const DecisionTree& tree, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot open '" + path + "' for writing");
  save_tree(tree, out);
}

DecisionTree load_tree(std::istream& in) {
  const std::string text = util::read_all(in);
  LineReader reader(text);
  std::string_view line;
  if (!reader.next(line) || line != "scalparc-tree v1") {
    fail_at(1, "missing 'scalparc-tree v1' header");
  }

  std::int32_t num_classes = 0;
  {
    if (!reader.next(line)) fail_at(reader.line() + 1, "missing classes line");
    Fields fields(line);
    std::string_view token;
    if (!(fields.word(token) && fields.number(num_classes)) ||
        token != "classes" || num_classes < 2) {
      fail_at(reader.line(), "bad classes line");
    }
    if (!fields.done()) fail_at(reader.line(), "trailing field on classes line");
  }

  // Attribute lines until the 'nodes <count>' line.
  std::vector<data::AttributeInfo> attributes;
  int num_nodes = -1;
  for (;;) {
    if (!reader.next(line)) {
      fail_at(reader.line() + 1, "unexpected end of input (no nodes line)");
    }
    Fields fields(line);
    std::string_view token;
    if (!fields.word(token)) fail_at(reader.line(), "blank line in header");
    if (token == "nodes") {
      if (!fields.number(num_nodes) || num_nodes < 0) {
        fail_at(reader.line(), "bad node count");
      }
      if (!fields.done()) fail_at(reader.line(), "trailing field on nodes line");
      // Every node has a line of its own: a larger count is rejected before
      // anything is sized by it.
      if (static_cast<std::size_t>(num_nodes) > reader.lines_left()) {
        fail_at(reader.line(), "node count " + std::to_string(num_nodes) +
                                   " exceeds the " +
                                   std::to_string(reader.lines_left()) +
                                   " line(s) left in the input");
      }
      break;
    }
    if (token != "attr") {
      fail_at(reader.line(),
              "expected 'attr' or 'nodes', got '" + std::string(token) + "'");
    }
    std::string name;
    std::string_view kind;
    if (!(fields.word(name) && fields.word(kind))) {
      fail_at(reader.line(), "bad attr line");
    }
    if (kind == "cont") {
      attributes.push_back(data::Schema::continuous(name));
    } else if (kind == "cat") {
      std::int32_t cardinality = 0;
      if (!fields.number(cardinality) || cardinality < 1) {
        fail_at(reader.line(), "bad categorical cardinality");
      }
      attributes.push_back(data::Schema::categorical(name, cardinality));
    } else {
      fail_at(reader.line(), "bad attribute kind '" + std::string(kind) + "'");
    }
    if (!fields.done()) fail_at(reader.line(), "trailing field on attr line");
  }

  DecisionTree tree(data::Schema(std::move(attributes), num_classes));
  const data::Schema& schema = tree.schema();

  // Structural audit state: the writer emits nodes in an order where every
  // child id exceeds its parent's (level-order induction, pre-order
  // compaction after pruning), and every non-root node is referenced by
  // exactly one parent. Enforcing both makes self-references, back-edge
  // cycles and shared subtrees unrepresentable, so a hostile snapshot can
  // never smuggle a non-tree graph past the loader.
  std::vector<char> has_parent(static_cast<std::size_t>(num_nodes), 0);
  std::string threshold;

  for (int expected = 0; expected < num_nodes; ++expected) {
    if (!reader.next(line)) {
      fail_at(reader.line() + 1,
              "unexpected end of input: node count says " +
                  std::to_string(num_nodes) + " node(s), got " +
                  std::to_string(expected));
    }
    Fields fields(line);
    std::string_view token;
    int id = 0;
    std::string_view kind;
    if (!(fields.word(token) && fields.number(id) && fields.word(kind)) ||
        token != "node" || id != expected) {
      fail_at(reader.line(),
              "bad node line (expected node " + std::to_string(expected) + ")");
    }
    TreeNode node;
    if (!(fields.number(node.depth) && fields.number(node.num_records) &&
          fields.number(node.majority_class))) {
      fail_at(reader.line(), "bad node header");
    }
    if (node.majority_class < 0 || node.majority_class >= num_classes) {
      fail_at(reader.line(), "majority class out of range");
    }
    node.class_counts.resize(static_cast<std::size_t>(num_classes));
    for (auto& count : node.class_counts) {
      if (!fields.number(count)) fail_at(reader.line(), "bad class counts");
    }
    if (kind == "leaf") {
      node.is_leaf = true;
    } else if (kind == "cont" || kind == "cat") {
      node.is_leaf = false;
      if (!fields.number(node.split.attribute)) {
        fail_at(reader.line(), "bad split attribute");
      }
      if (node.split.attribute < 0 ||
          node.split.attribute >= schema.num_attributes()) {
        fail_at(reader.line(), "split attribute out of range");
      }
      const data::AttributeInfo& info = schema.attribute(node.split.attribute);
      if (kind == "cont") {
        if (info.kind != data::AttributeKind::kContinuous) {
          fail_at(reader.line(),
                  "continuous split on categorical attribute '" + info.name +
                      "'");
        }
        node.split.kind = data::AttributeKind::kContinuous;
        node.split.num_children = 2;
        if (!fields.word(threshold)) fail_at(reader.line(), "bad threshold");
        node.split.threshold = hex_to_double(threshold, reader.line());
      } else {
        if (info.kind != data::AttributeKind::kCategorical) {
          fail_at(reader.line(), "categorical split on continuous attribute '" +
                                     info.name + "'");
        }
        node.split.kind = data::AttributeKind::kCategorical;
        if (!fields.number(node.split.num_children) ||
            node.split.num_children < 2) {
          fail_at(reader.line(), "bad child count");
        }
        node.split.value_to_child.resize(
            static_cast<std::size_t>(info.cardinality));
        for (auto& slot : node.split.value_to_child) {
          if (!fields.number(slot)) fail_at(reader.line(), "bad value_to_child");
          if (slot < -1 || slot >= node.split.num_children) {
            fail_at(reader.line(), "value_to_child slot " +
                                       std::to_string(slot) + " out of range");
          }
        }
      }
      node.children.resize(static_cast<std::size_t>(node.split.num_children));
      for (auto& child : node.children) {
        if (!fields.number(child)) fail_at(reader.line(), "bad child id");
        if (child < 0 || child >= num_nodes) {
          fail_at(reader.line(), "child id " + std::to_string(child) +
                                     " out of range [0, " +
                                     std::to_string(num_nodes) + ")");
        }
        if (child <= id) {
          fail_at(reader.line(),
                  "child id " + std::to_string(child) +
                      " does not exceed its parent id " + std::to_string(id) +
                      " (self-reference or cycle)");
        }
        if (has_parent[static_cast<std::size_t>(child)] != 0) {
          fail_at(reader.line(), "node " + std::to_string(child) +
                                     " is claimed by more than one parent");
        }
        has_parent[static_cast<std::size_t>(child)] = 1;
      }
    } else {
      fail_at(reader.line(), "bad node kind '" + std::string(kind) + "'");
    }
    std::string_view extra;
    if (fields.word(extra)) {
      fail_at(reader.line(),
              "trailing field '" + std::string(extra) + "' on node line");
    }
    tree.add_node(std::move(node));
  }

  // Node-count audit: the declared count must be exact — extra node lines
  // (or any other trailing content) mean the file and its count disagree.
  while (reader.next(line)) {
    if (!blank(line)) {
      fail_at(reader.line(), "trailing content after the declared " +
                                 std::to_string(num_nodes) + " node(s)");
    }
  }
  // Reachability audit: every non-root node must have been claimed as
  // someone's child; an orphan is a severed subtree the writer never emits.
  for (int id = 1; id < num_nodes; ++id) {
    if (has_parent[static_cast<std::size_t>(id)] == 0) {
      fail("node " + std::to_string(id) + " is unreachable (no parent)");
    }
  }
  return tree;
}

DecisionTree load_tree_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open '" + path + "' for reading");
  return load_tree(in);
}

}  // namespace scalparc::core
