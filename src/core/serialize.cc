#include "core/serialize.h"

#include <climits>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "nn/batchnorm.h"
#include "nn/masked_layer.h"

namespace stepping {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'E', 'P', 'N', 'E', 'T', '1'};

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

/// A short read. load_network reports it as an I/O failure (returns false)
/// rather than as a format error.
struct Truncated {};

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  if (!in.read(reinterpret_cast<char*>(&v), sizeof v)) throw Truncated{};
  return v;
}

void read_raw(std::istream& in, void* dst, std::size_t bytes) {
  if (!in.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes))) {
    throw Truncated{};
  }
}

void write_tensor(std::ostream& out, const Tensor& t) {
  write_u32(out, static_cast<std::uint32_t>(t.rank()));
  for (int i = 0; i < t.rank(); ++i) {
    write_u32(out, static_cast<std::uint32_t>(t.dim(i)));
  }
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

/// Reads a tensor that must have `like`'s shape. The rank and every extent
/// are checked before anything is allocated.
Tensor read_tensor_like(std::istream& in, const Tensor& like) {
  bool same = read_u32(in) == static_cast<std::uint32_t>(like.rank());
  for (int i = 0; same && i < like.rank(); ++i) {
    same = read_u32(in) == static_cast<std::uint32_t>(like.dim(i));
  }
  if (!same) {
    throw std::runtime_error("load_network: tensor shape mismatch (topology differs)");
  }
  Tensor t(like.shape());
  read_raw(in, t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return t;
}

void write_bytes(std::ostream& out, const std::vector<std::uint8_t>& v) {
  write_u32(out, static_cast<std::uint32_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size()));
}

std::vector<std::uint8_t> read_mask(std::istream& in, std::size_t size) {
  if (read_u32(in) != size) throw std::runtime_error("load_network: mask size mismatch");
  std::vector<std::uint8_t> v(size);
  read_raw(in, v.data(), size);
  return v;
}

void write_ints(std::ostream& out, const std::vector<int>& v) {
  write_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const int x : v) write_u32(out, static_cast<std::uint32_t>(x));
}

/// Unit -> subnet ids of a layer with `units` units. The count is checked
/// before anything is allocated, and every id must be at least 1.
std::vector<int> read_assignment(std::istream& in, int units) {
  if (read_u32(in) != static_cast<std::uint32_t>(units)) {
    throw std::runtime_error("load_network: assignment size mismatch");
  }
  std::vector<int> v(static_cast<std::size_t>(units));
  for (int& subnet : v) {
    const std::uint32_t id = read_u32(in);
    if (id < 1 || id > static_cast<std::uint32_t>(INT_MAX)) {
      throw std::runtime_error("load_network: unit subnet id out of range");
    }
    subnet = static_cast<int>(id);
  }
  return v;
}

void copy_into(Tensor& dst, const Tensor& src) {
  std::memcpy(dst.data(), src.data(),
              static_cast<std::size_t>(src.numel()) * sizeof(float));
}

/// One layer's record, parsed and validated but not yet applied.
struct StagedLayer {
  MaskedLayer* masked = nullptr;
  BatchNorm2d* bn = nullptr;
  bool head = false;
  /// Masked layer: weight, bias. BatchNorm: gamma, beta, running mean,
  /// running variance.
  std::vector<Tensor> tensors;
  std::vector<int> assignment;
  std::vector<std::uint8_t> mask;
};

// Layer kind tags for topology validation.
enum class Tag : std::uint32_t { kMasked = 1, kBatchNorm = 2, kOther = 3 };

}  // namespace

bool save_network(Network& net, std::ostream& out) {
  if (!net.wired()) throw std::logic_error("save_network: network not wired");
  out.write(kMagic, sizeof kMagic);
  write_u32(out, static_cast<std::uint32_t>(net.layers().size()));
  for (Layer* layer : net.layer_ptrs()) {
    if (auto* m = dynamic_cast<MaskedLayer*>(layer)) {
      write_u32(out, static_cast<std::uint32_t>(Tag::kMasked));
      write_u32(out, m->is_head() ? 1u : 0u);
      write_tensor(out, m->weight().value);
      write_tensor(out, m->bias().value);
      write_ints(out, m->unit_subnet());
      // prune_mask() returns const ref; copy for the generic writer.
      std::vector<std::uint8_t> mask(m->prune_mask().begin(), m->prune_mask().end());
      write_bytes(out, mask);
    } else if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
      write_u32(out, static_cast<std::uint32_t>(Tag::kBatchNorm));
      write_tensor(out, bn->params()[0]->value);
      write_tensor(out, bn->params()[1]->value);
      write_tensor(out, const_cast<Tensor&>(bn->running_mean()));
      write_tensor(out, const_cast<Tensor&>(bn->running_var()));
    } else {
      write_u32(out, static_cast<std::uint32_t>(Tag::kOther));
    }
  }
  return static_cast<bool>(out);
}

bool save_network(Network& net, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  return save_network(net, f);
}

bool load_network(Network& net, std::istream& in) {
  if (!net.wired()) throw std::logic_error("load_network: network not wired");
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof magic) != 0) {
    throw std::runtime_error("load_network: bad magic (not a SteppingNet file)");
  }
  // Parse and check the whole file before anything is written: a truncated
  // or corrupt file leaves every parameter, Param::version, assignment, mask
  // and BatchNorm statistic of `net` as it was.
  std::vector<StagedLayer> staged;
  try {
    if (read_u32(in) != net.layers().size()) {
      throw std::runtime_error("load_network: layer count mismatch");
    }
    staged.reserve(net.layers().size());
    for (Layer* layer : net.layer_ptrs()) {
      const auto tag = static_cast<Tag>(read_u32(in));
      StagedLayer s;
      if (auto* m = dynamic_cast<MaskedLayer*>(layer)) {
        if (tag != Tag::kMasked) throw std::runtime_error("load_network: expected masked layer");
        s.masked = m;
        s.head = read_u32(in) != 0;
        s.tensors.push_back(read_tensor_like(in, m->weight().value));
        s.tensors.push_back(read_tensor_like(in, m->bias().value));
        s.assignment = read_assignment(in, m->num_units());
        s.mask = read_mask(in, m->prune_mask().size());
      } else if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
        if (tag != Tag::kBatchNorm) throw std::runtime_error("load_network: expected batchnorm");
        s.bn = bn;
        for (const Tensor* t : {&bn->gamma(), &bn->beta(), &bn->running_mean(),
                                &bn->running_var()}) {
          s.tensors.push_back(read_tensor_like(in, *t));
        }
      } else if (tag != Tag::kOther) {
        throw std::runtime_error("load_network: unexpected layer tag");
      }
      staged.push_back(std::move(s));
    }
  } catch (const Truncated&) {
    return false;
  }
  // save_network writes nothing after the last record.
  if (in.peek() != std::istream::traits_type::eof()) {
    throw std::runtime_error("load_network: bytes after the last layer record");
  }

  for (const StagedLayer& s : staged) {
    if (MaskedLayer* m = s.masked) {
      m->set_head(s.head);
      // The copies bypass the layer's dirty tracking: bump the param
      // versions so packed-weight caches notice.
      copy_into(m->weight().value, s.tensors[0]);
      ++m->weight().version;
      copy_into(m->bias().value, s.tensors[1]);
      ++m->bias().version;
      for (int u = 0; u < m->num_units(); ++u) {
        m->set_unit_subnet(u, s.assignment[static_cast<std::size_t>(u)]);
      }
      m->set_prune_mask(s.mask);
    } else if (BatchNorm2d* bn = s.bn) {
      copy_into(bn->params()[0]->value, s.tensors[0]);
      copy_into(bn->params()[1]->value, s.tensors[1]);
      copy_into(bn->mutable_running_mean(), s.tensors[2]);
      copy_into(bn->mutable_running_var(), s.tensors[3]);
    }
  }
  return true;
}

bool load_network(Network& net, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  return load_network(net, f);
}

}  // namespace stepping
