// Model files are untrusted input. A cut or corrupt file must fail before
// load_network writes anything: every parameter and its version, every head
// flag, assignment and prune mask, and every BatchNorm statistic of the
// target network stays byte-for-byte as it was, and no count read from the
// file sizes an allocation before it is checked against the network.
//
// RobustFuzz feeds deterministic mutations (fixed seeds, fixed iteration
// counts) of valid model files and serve wire frames to the parsers: byte
// flips, cuts, appended bytes, and count or extent fields set to edge
// values. Whatever a parser accepts must re-encode to the same bytes;
// whatever it rejects must leave its target as it was.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "models/models.h"
#include "nn/batchnorm.h"
#include "serve/protocol.h"
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

TEST(RobustModelFile, BytesAfterTheLastRecordAreRefused) {
  Network a = nested_net(1);
  const std::string bytes = saved_bytes(a);
  for (const std::size_t extra : {std::size_t{1}, std::size_t{28}}) {
    Network b = nested_net(2);
    const std::string before = snapshot(b);
    std::stringstream in(bytes + std::string(extra, '\x5a'));
    EXPECT_THROW(load_network(b, in), std::runtime_error) << extra << " bytes";
    EXPECT_TRUE(snapshot(b) == before) << extra << " bytes";
  }
}

// `steppingnet info` exits non-zero on a model file with 28 bytes after its
// last record, and zero on the same file without them.
TEST(RobustModelFile, CliInfoRefusesBytesAfterTheLastRecord) {
  // The network the CLI builds from its default flags.
  ModelConfig mc;
  mc.classes = 10;
  mc.expansion = 1.8;
  mc.width_mult = 0.25;
  mc.seed = 42 + 7;
  Network net = build_model("lenet3c1l", mc);
  const std::string good = ::testing::TempDir() + "robust_cli_model.bin";
  const std::string junk = ::testing::TempDir() + "robust_cli_junk.bin";
  ASSERT_TRUE(save_network(net, good));
  {
    std::ofstream f(junk, std::ios::binary);
    f << saved_bytes(net) << std::string(28, 'j');
  }
  const auto info = [](const std::string& path) {
    const std::string cmd =
        std::string(STEPPING_CLI) + " info --in " + path + " > /dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  };
  EXPECT_EQ(info(good), 0);
  EXPECT_NE(info(junk), 0);
  std::remove(good.c_str());
  std::remove(junk.c_str());
}

// ---------------------------------------------------------------------------
// Deterministic mutation fuzzing.
// ---------------------------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

/// Edge values for a u32 count or extent field.
constexpr std::uint32_t kEdges[] = {0u,          1u,          2u,
                                    1u << 31,    0xffffffffu, 1u << 16,
                                    27905u,      429509837u,  384773u};

void put_u32(Bytes& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

/// One mutation of `base`: one to three flipped bytes, a cut, one to eight
/// appended bytes, or each u32 field at `fields` (offsets into `base`)
/// overwritten with an edge value or left alone.
Bytes mutate(const Bytes& base, const std::vector<std::size_t>& fields,
             Rng& rng) {
  Bytes out = base;
  switch (rng.next_below(fields.empty() ? 3 : 4)) {
    case 0: {
      const int flips = 1 + static_cast<int>(rng.next_below(3));
      for (int i = 0; i < flips; ++i) {
        out[rng.next_below(out.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      break;
    }
    case 1:
      out.resize(rng.next_below(out.size()));
      break;
    case 2: {
      const int extra = 1 + static_cast<int>(rng.next_below(8));
      for (int i = 0; i < extra; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      }
      break;
    }
    default:
      for (const std::size_t at : fields) {
        if (rng.bernoulli(0.5)) {
          put_u32(out, at, kEdges[rng.next_below(std::size(kEdges))]);
        }
      }
      break;
  }
  return out;
}

}  // namespace

namespace serve {
namespace {

WireRequest infer_request(std::uint32_t c, std::uint32_t h, std::uint32_t w) {
  WireRequest req;
  req.deadline_ms = 12.5;
  req.mac_budget = 400000;
  req.c = c;
  req.h = h;
  req.w = w;
  for (std::uint32_t i = 0; i < c * h * w; ++i) {
    req.data.push_back(0.25f * static_cast<float>(i) - 3.0f);
  }
  return req;
}

TEST(RobustFuzz, DecodeRequestAcceptsOnlyWhatReencodesExactly) {
  // Offsets of c, h and w in an infer payload: opcode, deadline, budget.
  const std::vector<std::size_t> extents = {17, 21, 25};
  std::vector<Bytes> bases = {encode_request(infer_request(3, 4, 5)),
                              encode_request(infer_request(1, 1, 1))};
  for (const Opcode op : {Opcode::kShutdown, Opcode::kStats,
                          Opcode::kStatsProm, Opcode::kTimeline}) {
    WireRequest req;
    req.opcode = op;
    bases.push_back(encode_request(req));
  }
  // Extents whose product wraps: 2^62 + 1 floats is 4 bytes mod 2^64, and
  // (2^32 - 1)^3 overflows 64 bits outright.
  const std::uint32_t wraps[][3] = {{27905u, 429509837u, 384773u},
                                    {0xffffffffu, 0xffffffffu, 0xffffffffu},
                                    {1u << 31, 1u << 31, 4u}};
  for (const auto& e : wraps) {
    Bytes bad = bases[0];
    for (int i = 0; i < 3; ++i) put_u32(bad, extents[i], e[i]);
    WireRequest out;
    EXPECT_FALSE(decode_request(bad, out)) << e[0] << "x" << e[1] << "x" << e[2];
  }
  Rng rng(2024);
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t which = rng.next_below(bases.size());
    const Bytes& base = bases[which];
    const Bytes bad =
        mutate(base, which < 2 ? extents : std::vector<std::size_t>{}, rng);
    WireRequest out;
    if (!decode_request(bad, out)) continue;
    ++accepted;
    EXPECT_EQ(encode_request(out), bad) << "iteration " << iter;
  }
  EXPECT_GT(accepted, 0);
}

TEST(RobustFuzz, DecodeReplyAcceptsOnlyWhatReencodesExactly) {
  WireReply reply;
  reply.exit_subnet = 3;
  reply.confidence = 0.75;
  reply.deadline_missed = 1;
  reply.macs = 123456;
  reply.first_result_ms = 1.5;
  reply.final_ms = 4.25;
  for (int i = 0; i < 10; ++i) reply.logits.push_back(0.5f * i - 2.0f);
  const Bytes base = encode_reply(reply);
  // The logit count follows exit_subnet, confidence, the miss flag, macs
  // and the two times.
  const std::vector<std::size_t> count = {4 + 8 + 1 + 8 + 8 + 8};
  Rng rng(2025);
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const Bytes bad = mutate(base, count, rng);
    WireReply out;
    if (!decode_reply(bad, out)) continue;
    ++accepted;
    EXPECT_EQ(encode_reply(out), bad) << "iteration " << iter;
  }
  EXPECT_GT(accepted, 0);
}

/// Writes `bytes` into one end of a fresh socketpair, closes that end, and
/// runs read_frame on the other.
bool read_frame_from(const Bytes& bytes, std::size_t max_payload,
                     Bytes& payload) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return false;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fds[1], bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(sent, bytes.size());
  ::close(fds[1]);
  const bool ok = read_frame(fds[0], payload, max_payload);
  ::close(fds[0]);
  return ok;
}

TEST(RobustFuzz, ReadFrameOnMutatedPrefixesAndCutBodies) {
  // A prefix at the frame limit backed by 16 bytes: read_frame once sized
  // its buffer from the prefix before any byte of the body arrived, so this
  // frame cost 256 MiB.
  {
    Bytes frame(4 + 16, 7);
    put_u32(frame, 0, static_cast<std::uint32_t>(kMaxFramePayload));
    Bytes payload;
    EXPECT_FALSE(read_frame_from(frame, kMaxFramePayload, payload));
    EXPECT_LE(payload.capacity(), std::size_t{4} << 20);
  }
  Rng rng(2026);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes body(rng.next_below(600));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next_below(256));
    std::uint32_t len = static_cast<std::uint32_t>(body.size());
    switch (rng.next_below(4)) {
      case 0:
        break;  // intact
      case 1:
        len ^= 1u << rng.next_below(32);
        break;
      case 2:
        len = rng.bernoulli(0.5)
                  ? static_cast<std::uint32_t>(kMaxFramePayload)
                  : kEdges[rng.next_below(std::size(kEdges))];
        break;
      default:
        body.resize(rng.next_below(body.size() + 1));  // cut body
        break;
    }
    const std::size_t max_payload = rng.bernoulli(0.5) ? kMaxFramePayload : 256;
    Bytes frame(4 + body.size());
    put_u32(frame, 0, len);
    std::copy(body.begin(), body.end(), frame.begin() + 4);
    Bytes payload;
    const bool ok = read_frame_from(frame, max_payload, payload);
    EXPECT_EQ(ok, len <= max_payload && len <= body.size())
        << "iteration " << iter << " len " << len;
    if (ok) {
      ASSERT_EQ(payload.size(), len) << "iteration " << iter;
      EXPECT_TRUE(std::equal(payload.begin(), payload.end(), body.begin()))
          << "iteration " << iter;
    }
    EXPECT_LE(payload.capacity(), std::size_t{4} << 20) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace serve

namespace {

TEST(RobustFuzz, LoadNetworkRejectsMutatedFilesWithoutWriting) {
  Network a = nested_net(1);
  const std::string saved = saved_bytes(a);
  const Bytes base(saved.begin(), saved.end());
  // Every count and tensor rank sits at the start of a field.
  std::vector<std::size_t> counts;
  for (const Field& f : file_fields(a)) counts.push_back(f.begin);
  const Network target = nested_net(2);
  Rng rng(2027);
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    // Overwrite a handful of the count fields, not all 60-odd at once.
    std::vector<std::size_t> some;
    for (int i = 0; i < 3; ++i) some.push_back(counts[rng.next_below(counts.size())]);
    const Bytes bad = mutate(base, some, rng);
    Network b = target.clone();
    const std::string before = snapshot(b);
    std::stringstream in(std::string(bad.begin(), bad.end()));
    bool loaded = false;
    try {
      loaded = load_network(b, in);
    } catch (const std::runtime_error&) {
    }
    if (loaded) continue;
    ++rejected;
    EXPECT_TRUE(snapshot(b) == before) << "iteration " << iter;
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace stepping
