#include "mmlp/core/instance.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mmlp/util/check.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

TEST(Instance, BuilderProducesExpectedCounts) {
  const auto instance = testing::two_agent_instance();
  EXPECT_EQ(instance.num_agents(), 2);
  EXPECT_EQ(instance.num_resources(), 1);
  EXPECT_EQ(instance.num_parties(), 2);
  EXPECT_EQ(instance.num_nonzeros(), 4u);
}

TEST(Instance, SupportsAreSortedAndConsistent) {
  Instance::Builder builder;
  builder.reserve(3, 0, 0);
  const ResourceId i = builder.add_resource();
  builder.set_usage(i, 2, 3.0);
  builder.set_usage(i, 0, 1.0);
  builder.set_usage(i, 1, 2.0);
  const PartyId k = builder.add_party();
  builder.set_benefit(k, 1, 5.0);
  const auto instance = std::move(builder).build();
  const auto& support = instance.resource_support(i);
  ASSERT_EQ(support.size(), 3u);
  EXPECT_EQ(support[0].id, 0);
  EXPECT_EQ(support[1].id, 1);
  EXPECT_EQ(support[2].id, 2);
  EXPECT_DOUBLE_EQ(instance.usage(i, 2), 3.0);
  EXPECT_DOUBLE_EQ(instance.usage(i, 1), 2.0);
  EXPECT_DOUBLE_EQ(instance.benefit(k, 1), 5.0);
  EXPECT_DOUBLE_EQ(instance.benefit(k, 0), 0.0);  // not in V_k
}

TEST(Instance, TransposedViewsMatch) {
  const auto instance = testing::single_party_instance();
  for (AgentId v = 0; v < instance.num_agents(); ++v) {
    for (const Coef& entry : instance.agent_resources(v)) {
      EXPECT_DOUBLE_EQ(instance.usage(entry.id, v), entry.value);
    }
    for (const Coef& entry : instance.agent_parties(v)) {
      EXPECT_DOUBLE_EQ(instance.benefit(entry.id, v), entry.value);
    }
  }
}

TEST(Instance, DegreeBounds) {
  const auto instance = testing::single_party_instance();
  const auto bounds = instance.degree_bounds();
  EXPECT_EQ(bounds.delta_V_of_I, 2u);  // each resource couples 2 agents
  EXPECT_EQ(bounds.delta_V_of_K, 3u);  // the sole party has all 3 agents
  EXPECT_EQ(bounds.delta_I_of_V, 2u);  // middle agent is in 2 resources
  EXPECT_EQ(bounds.delta_K_of_V, 1u);
}

TEST(Instance, CommunicationGraphFull) {
  const auto instance = testing::two_agent_instance();
  const auto h = instance.communication_graph();
  EXPECT_EQ(h.num_nodes(), 2);
  EXPECT_EQ(h.num_edges(), 3);  // V_i plus both V_k
  EXPECT_TRUE(h.adjacent(0, 1));
}

TEST(Instance, CommunicationGraphCollaborationOblivious) {
  const auto instance = testing::two_agent_instance();
  const auto h = instance.communication_graph(/*collaboration_oblivious=*/true);
  EXPECT_EQ(h.num_edges(), 1);  // only the resource hyperedge
}

TEST(Instance, PartyEdgesConnectInFullGraphOnly) {
  // Two agents share only a party, plus private resources.
  Instance::Builder builder;
  const AgentId v0 = builder.add_agent();
  const AgentId v1 = builder.add_agent();
  const ResourceId i0 = builder.add_resource();
  const ResourceId i1 = builder.add_resource();
  builder.set_usage(i0, v0, 1.0);
  builder.set_usage(i1, v1, 1.0);
  const PartyId k = builder.add_party();
  builder.set_benefit(k, v0, 1.0).set_benefit(k, v1, 1.0);
  const auto instance = std::move(builder).build();
  EXPECT_TRUE(instance.communication_graph(false).adjacent(0, 1));
  EXPECT_FALSE(instance.communication_graph(true).adjacent(0, 1));
}

TEST(Instance, BuilderRejectsNonPositiveCoefficients) {
  Instance::Builder builder;
  builder.add_agent();
  builder.add_resource();
  EXPECT_THROW(builder.set_usage(0, 0, 0.0), CheckError);
  EXPECT_THROW(builder.set_usage(0, 0, -1.0), CheckError);
  builder.add_party();
  EXPECT_THROW(builder.set_benefit(0, 0, 0.0), CheckError);
}

TEST(Instance, BuilderRejectsDuplicateCoefficient) {
  Instance::Builder builder;
  builder.add_agent();
  builder.add_resource();
  builder.set_usage(0, 0, 1.0);
  builder.set_usage(0, 0, 2.0);
  EXPECT_THROW(std::move(builder).build(), CheckError);
}

/// Run fn and return the CheckError message (fails the test if nothing
/// is thrown).
template <typename Fn>
std::string check_error_message(Fn fn) {
  try {
    fn();
  } catch (const CheckError& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected CheckError";
  return {};
}

TEST(Instance, BuilderErrorsNameTheOffendingIds) {
  // A bad entry inside a large generated instance must be attributable:
  // every rejection names the agent/resource/party ids involved.
  {
    Instance::Builder builder;
    const auto message =
        check_error_message([&] { builder.set_usage(3, 7, -1.0); });
    EXPECT_NE(message.find("i=3"), std::string::npos) << message;
    EXPECT_NE(message.find("v=7"), std::string::npos) << message;
  }
  {
    Instance::Builder builder;
    const auto message =
        check_error_message([&] { builder.set_benefit(5, 9, 0.0); });
    EXPECT_NE(message.find("k=5"), std::string::npos) << message;
    EXPECT_NE(message.find("v=9"), std::string::npos) << message;
  }
  {
    Instance::Builder builder;
    builder.reserve(8, 4, 0);
    for (AgentId v = 0; v < 8; ++v) {
      builder.set_usage(v / 2, v, 1.0);
    }
    builder.set_usage(2, 5, 2.0);  // duplicate of the (2, 5) entry above
    const auto message =
        check_error_message([&] { std::move(builder).build(); });
    EXPECT_NE(message.find("duplicate"), std::string::npos) << message;
    EXPECT_NE(message.find("2"), std::string::npos) << message;
    EXPECT_NE(message.find("5"), std::string::npos) << message;
  }
}

TEST(Instance, RowAccessorsRejectOutOfRangeIds) {
  // Every row accessor checks its id at both ends of the range, with
  // the message naming the kind, the id and the row count.
  const Instance instance = testing::path_instance(4);  // 4 agents, 3 resources, 4 parties
  const auto expect_message = [&](const auto& access, const std::string& text) {
    const std::string message = check_error_message(access);
    EXPECT_NE(message.find(text), std::string::npos) << message;
  };
  for (const std::int32_t id : {-1, 3}) {
    const std::string suffix = std::to_string(id) + ", have 3";
    expect_message([&] { instance.resource_support(id); },
                   "resource index out of range: i=" + suffix);
    expect_message([&] { instance.resource_support_size(id); },
                   "resource index out of range: i=" + suffix);
  }
  for (const std::int32_t id : {-1, 4}) {
    const std::string suffix = std::to_string(id) + ", have 4";
    expect_message([&] { instance.party_support(id); },
                   "party index out of range: k=" + suffix);
    expect_message([&] { instance.party_support_size(id); },
                   "party index out of range: k=" + suffix);
    expect_message([&] { instance.agent_resources(id); },
                   "agent index out of range: v=" + suffix);
    expect_message([&] { instance.agent_parties(id); },
                   "agent index out of range: v=" + suffix);
  }
  // The last row of each kind is still in range.
  EXPECT_EQ(instance.resource_support(2).size(), 2u);
  EXPECT_EQ(instance.party_support_size(3), 1u);
  EXPECT_EQ(instance.agent_resources(3).size(), 1u);
  EXPECT_EQ(instance.agent_parties(3).size(), 1u);
}

TEST(Instance, BuildRejectsEmptyIv) {
  // An agent with no resource violates the standing assumptions.
  Instance::Builder builder;
  builder.add_agent();
  builder.add_agent();
  builder.add_resource();
  builder.set_usage(0, 0, 1.0);  // agent 1 left without a resource
  EXPECT_THROW(std::move(builder).build(), CheckError);
}

TEST(Instance, BuildRejectsEmptyResource) {
  Instance::Builder builder;
  builder.add_agent();
  const ResourceId i0 = builder.add_resource();
  builder.add_resource();  // never touched
  builder.set_usage(i0, 0, 1.0);
  EXPECT_THROW(std::move(builder).build(), CheckError);
}

TEST(Instance, SerializeRoundTrip) {
  const auto original = testing::single_party_instance();
  const auto restored = Instance::deserialize(original.serialize());
  EXPECT_TRUE(original == restored);
  EXPECT_EQ(restored.num_agents(), original.num_agents());
  EXPECT_EQ(restored.num_nonzeros(), original.num_nonzeros());
}

TEST(Instance, DeserializeRejectsGarbage) {
  EXPECT_THROW(Instance::deserialize("bogus 1 1 1"), CheckError);
  EXPECT_THROW(Instance::deserialize("mmlp 1 1 1\nz 0 0 1.0"), CheckError);
}

/// The instance-text acceptance set: which spellings of the four records
/// `mmlp 2 1 1 / a 0 0 <a00> / a 0 1 2 / c 0 0 1 / c 0 1 0.5` parse, and
/// to which a(0,0). The table pins the grammar the format has always
/// had (istream extraction: a leading '+', bare-dot decimals, any
/// whitespace between tokens), so a parser rewrite must keep it green.
TEST(Instance, DeserializeAcceptanceSet) {
  const auto expected = [](double a00) {
    Instance::Builder builder;
    builder.set_usage(0, 0, a00);
    builder.set_usage(0, 1, 2.0);
    builder.set_benefit(0, 0, 1.0);
    builder.set_benefit(0, 1, 0.5);
    return std::move(builder).build();
  };
  const std::string tail = "a 0 1 2\nc 0 0 1\nc 0 1 0.5\n";
  const std::string text = "mmlp 2 1 1\na 0 0 1\n" + tail;

  const std::vector<std::pair<std::string, double>> accepted = {
      {text, 1.0},
      {"mmlp 2 1 1\na 0 0 +1\n" + tail, 1.0},           // '+' on a value
      {"mmlp 2 1 1\na +0 0 1\n" + tail, 1.0},           // '+' on a row id
      {"mmlp 2 1 1\na 0 0 .5\n" + tail, 0.5},           // no integer part
      {"mmlp 2 1 1\na 0 0 5.\n" + tail, 5.0},           // no fraction digits
      {"mmlp 2 1 1\na 0 0 4.9e-324\n" + tail, 4.9e-324},  // denorm_min
      {"mmlp\t2\t1\t1\na\t0\t0\t1\na 0\t1 2\nc 0 0 1\nc 0 1 0.5\n", 1.0},
      {"mmlp 2 1 1\r\na 0 0 1\r\na 0 1 2\r\nc 0 0 1\r\nc 0 1 0.5\r\n", 1.0},
      {"mmlp 2 1 1\na 0 0 1\na 0 1 2\nc 0 0 1\nc 0 1 0.5", 1.0},  // no final \n
      {text + "\n\n  \n", 1.0},                         // blank trailing lines
      {"mmlp 2 1 1 a 0 0 1 a 0 1 2 c 0 0 1 c 0 1 0.5", 1.0},  // one line
  };
  for (const auto& [input, a00] : accepted) {
    const Instance parsed = Instance::deserialize(input);
    EXPECT_TRUE(parsed == expected(a00)) << input;
  }

  const std::vector<std::string> rejected = {
      "mmlp 2 1 1\na 0 0 inf\n" + tail,
      "mmlp 2 1 1\na 0 0 nan\n" + tail,
      "mmlp 2 1 1\na 0 0 1e400\n" + tail,   // overflows a double
      "mmlp 2 1 1\na 0 0 1e-400\n" + tail,  // underflows to zero
      "mmlp 2 1 1\na 0 0 0x1p0\n" + tail,   // no hex floats
      "mmlp 2 1 1\na 0 0 1.0x\n" + tail,    // trailing junk
      "mmlp 2 1 1\na 0 0 1,5\n" + tail,     // decimal comma
      "mmlp 2 1 1\na 0 0 1e\n" + tail,      // exponent without digits
      "mmlp 2 1 1\na 0 0 +-1\n" + tail,     // two signs
      "mmlp 2 1 1\na 0 0 -0\n" + tail,      // not positive
      "mmlp 2 1 1\na 0 1.5 1\n" + tail,     // fractional agent id
      "mmlp 2 1 1\na 0 99999999999 1\n" + tail,  // id beyond int32
      "mmlp 2 1 1\na0 0 1\n" + tail,        // kind glued to a number
      "mmlp 2 1 1\naa 0 0 1\n" + tail,      // unknown kind
      "mmlp 2 1 1\na 0 0 1\na 0 1 2\nc 0 0 1\nc 0 1\n",  // truncated record
      "mmlp -2 1 1\na 0 0 1\n" + tail,      // negative header count
      "mmlpx 2 1 1\na 0 0 1\n" + tail,      // bad magic
  };
  for (const std::string& input : rejected) {
    EXPECT_THROW((void)Instance::deserialize(input), CheckError) << input;
  }
}

TEST(Instance, EqualityDistinguishesCoefficients) {
  const auto a = testing::two_agent_instance();
  Instance::Builder builder;
  const AgentId v0 = builder.add_agent();
  const AgentId v1 = builder.add_agent();
  const ResourceId i = builder.add_resource();
  builder.set_usage(i, v0, 1.0).set_usage(i, v1, 2.0);  // differs here
  const PartyId k0 = builder.add_party();
  const PartyId k1 = builder.add_party();
  builder.set_benefit(k0, v0, 1.0).set_benefit(k1, v1, 1.0);
  const auto b = std::move(builder).build();
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace mmlp
