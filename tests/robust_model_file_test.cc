// Model files are untrusted input. A cut or corrupt file must fail before
// load_network writes anything: every parameter and its version, every head
// flag, assignment and prune mask, and every BatchNorm statistic of the
// target network stays byte-for-byte as it was, and no count read from the
// file sizes an allocation before it is checked against the network.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "models/models.h"
#include "nn/batchnorm.h"
#include "tensor/ops.h"

namespace stepping {
namespace {

/// A nested LeNet-3C1L whose weights, assignments, masks and BN statistics
/// all depend on `seed`, so two seeds differ in every field a file carries.
Network nested_net(std::uint64_t seed) {
  ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.15,
                 .seed = seed};
  Network net = build_lenet3c1l(mc);
  Rng rng(seed);
  for (MaskedLayer* m : net.body_layers()) {
    for (int u = 0; u < m->num_units(); ++u) {
      m->set_unit_subnet(u, rng.uniform_int(1, 4));
    }
    m->apply_magnitude_prune(0.03f);
  }
  Tensor x({4, 3, 32, 32});
  fill_normal(x, 0.5f, 1.0f, rng);
  SubnetContext ctx;
  ctx.subnet_id = 4;
  ctx.training = true;
  net.forward(x, ctx);  // moves the BN running statistics
  return net;
}

/// Everything load_network may write, as bytes.
std::string snapshot(Network& net) {
  std::string out;
  const auto add = [&out](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  const auto add_tensor = [&add](const Tensor& t) {
    add(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  };
  for (Layer* layer : net.layer_ptrs()) {
    for (Param* p : layer->params()) {
      add_tensor(p->value);
      add(&p->version, sizeof p->version);
    }
    if (auto* m = dynamic_cast<MaskedLayer*>(layer)) {
      const char head = m->is_head() ? 1 : 0;
      add(&head, 1);
      add(m->unit_subnet().data(), m->unit_subnet().size() * sizeof(int));
      add(m->prune_mask().data(), m->prune_mask().size());
    } else if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
      add_tensor(bn->running_mean());
      add_tensor(bn->running_var());
    }
  }
  return out;
}

/// One field of a saved file: [begin, end) byte offsets. Counts and tensor
/// ranks sit at `begin`.
struct Field {
  std::string what;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The fields of `net`'s file, in order, from the layout save_network
/// writes: magic and layer count, then per layer a tag and its record.
std::vector<Field> file_fields(Network& net) {
  std::vector<Field> fields;
  std::size_t at = 8 + 4;
  const auto field = [&](const std::string& what, std::size_t bytes) {
    fields.push_back({what, at, at + bytes});
    at += bytes;
  };
  const auto tensor = [&](const std::string& what, const Tensor& t) {
    field(what, 4 + 4 * static_cast<std::size_t>(t.rank()) +
                    sizeof(float) * static_cast<std::size_t>(t.numel()));
  };
  for (Layer* layer : net.layer_ptrs()) {
    at += 4;  // kind tag
    if (auto* m = dynamic_cast<MaskedLayer*>(layer)) {
      at += 4;  // head flag
      tensor("weight", m->weight().value);
      tensor("bias", m->bias().value);
      field("assignment", 4 + 4 * static_cast<std::size_t>(m->num_units()));
      field("mask", 4 + m->prune_mask().size());
    } else if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
      tensor("bn_gamma", bn->gamma());
      tensor("bn_beta", bn->beta());
      tensor("bn_running_mean", bn->running_mean());
      tensor("bn_running_var", bn->running_var());
    }
  }
  return fields;
}

/// The `nth` (0-based) field named `what`; the last one when nth < 0.
Field find_field(const std::vector<Field>& fields, const std::string& what,
                 int nth) {
  std::vector<Field> named;
  for (const Field& f : fields) {
    if (f.what == what) named.push_back(f);
  }
  EXPECT_FALSE(named.empty()) << what;
  if (named.empty()) return {};
  return nth < 0 ? named.back() : named.at(static_cast<std::size_t>(nth));
}

std::string saved_bytes(Network& net) {
  std::stringstream buf;
  EXPECT_TRUE(save_network(net, buf));
  return buf.str();
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(&bytes[at], &v, sizeof v);
}

TEST(RobustModelFile, CutFileFailsAndLeavesTheNetworkUnchanged) {
  Network a = nested_net(1);
  const std::string bytes = saved_bytes(a);
  const std::vector<Field> fields = file_fields(a);
  ASSERT_EQ(fields.back().end, bytes.size());

  // Each cut lands inside a field, past at least one whole layer, so a
  // loader that wrote as it read would already have changed the target.
  const auto middle = [](const Field& f) { return (f.begin + f.end) / 2; };
  const std::vector<std::pair<std::string, std::size_t>> cuts = {
      {"weight of the second masked layer",
       middle(find_field(fields, "weight", 1))},
      {"assignment of the second masked layer",
       middle(find_field(fields, "assignment", 1))},
      {"prune mask of the third masked layer",
       middle(find_field(fields, "mask", 2))},
      {"running variance of the last BatchNorm",
       middle(find_field(fields, "bn_running_var", -1))},
      {"one byte before the end", bytes.size() - 1},
  };
  for (const auto& [what, at] : cuts) {
    Network b = nested_net(2);
    const std::string before = snapshot(b);
    std::stringstream in(bytes.substr(0, at));
    bool loaded = true;
    EXPECT_NO_THROW(loaded = load_network(b, in)) << what;
    EXPECT_FALSE(loaded) << what;
    EXPECT_TRUE(snapshot(b) == before) << "cut inside the " << what;
  }

  // The whole file still loads, and then it does change the target.
  Network b = nested_net(2);
  const std::string before = snapshot(b);
  std::stringstream in(bytes);
  ASSERT_TRUE(load_network(b, in));
  EXPECT_FALSE(snapshot(b) == before);
  for (std::size_t i = 0; i < a.body_layers().size(); ++i) {
    EXPECT_EQ(b.body_layers()[i]->unit_subnet(),
              a.body_layers()[i]->unit_subnet());
  }
}

TEST(RobustModelFile, SubnetIdBelowOneIsRejected) {
  Network a = nested_net(1);
  std::string bytes = saved_bytes(a);
  const Field f = find_field(file_fields(a), "assignment", 1);
  put_u32(bytes, f.begin + 4 + 4 * 2, 0);  // the third unit's subnet id

  Network b = nested_net(2);
  const std::string before = snapshot(b);
  std::stringstream in(bytes);
  EXPECT_THROW(load_network(b, in), std::runtime_error);
  EXPECT_TRUE(snapshot(b) == before);
}

TEST(RobustModelFile, CountsAreCheckedBeforeAnyRead) {
  Network a = nested_net(1);
  const std::string bytes = saved_bytes(a);
  const std::vector<Field> fields = file_fields(a);
  // An assignment count, a mask length and a tensor rank of 2^20: each must
  // be refused right after the count itself is read, with nothing sized
  // from it and the stream still positioned just past it.
  for (const char* what : {"assignment", "mask", "weight"}) {
    const Field f = find_field(fields, what, 1);
    std::string bad = bytes;
    put_u32(bad, f.begin, 1u << 20);
    Network b = nested_net(2);
    const std::string before = snapshot(b);
    std::stringstream in(bad);
    EXPECT_THROW(load_network(b, in), std::runtime_error) << what;
    EXPECT_TRUE(in.good()) << what;
    EXPECT_EQ(static_cast<std::size_t>(in.tellg()), f.begin + 4) << what;
    EXPECT_TRUE(snapshot(b) == before) << what;
  }
}

}  // namespace
}  // namespace stepping
