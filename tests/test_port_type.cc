// Unit tests for port types and send-time message checking (Section 3.2).
#include <gtest/gtest.h>

#include "src/transmit/complex.h"
#include "src/value/port_type.h"

namespace guardians {
namespace {

PortType ReservePortType() {
  return PortType(
      "flight",
      {MessageSig{"reserve",
                  {ArgType::Of(TypeTag::kString), ArgType::Of(TypeTag::kInt)},
                  {"ok", "full"}},
       MessageSig{"note", {ArgType::Of(TypeTag::kString)}, {}},
       MessageSig{"poll", {}, {"status"}}});
}

TEST(ArgTypeTest, BuiltinMatching) {
  EXPECT_TRUE(ArgType::Of(TypeTag::kInt).Matches(Value::Int(1)));
  EXPECT_FALSE(ArgType::Of(TypeTag::kInt).Matches(Value::Str("1")));
  EXPECT_TRUE(ArgType::Any().Matches(Value::Str("anything")));
  EXPECT_TRUE(ArgType::Any().Matches(Value::Null()));
}

TEST(ArgTypeTest, AbstractMatchingByTypeName) {
  const ArgType complex_arg = ArgType::AbstractOf(kComplexTypeName);
  EXPECT_TRUE(complex_arg.Matches(Value::Abstract(MakeRectComplex(1, 2))));
  const ArgType other = ArgType::AbstractOf("matrix");
  EXPECT_FALSE(other.Matches(Value::Abstract(MakeRectComplex(1, 2))));
  EXPECT_FALSE(complex_arg.Matches(Value::Int(3)));
}

TEST(ArgTypeTest, Canonical) {
  EXPECT_EQ(ArgType::Of(TypeTag::kInt).Canonical(), "int");
  EXPECT_EQ(ArgType::AbstractOf("complex").Canonical(), "abstract<complex>");
  EXPECT_EQ(ArgType::Any().Canonical(), "any");
}

TEST(MessageSigTest, CanonicalIncludesReplies) {
  MessageSig sig{"reserve",
                 {ArgType::Of(TypeTag::kString)},
                 {"ok", "full"}};
  EXPECT_EQ(sig.Canonical(), "reserve(string) replies(ok,full)");
  MessageSig no_reply{"note", {}, {}};
  EXPECT_EQ(no_reply.Canonical(), "note()");
}

TEST(PortTypeTest, HashIsStableAndSensitive) {
  EXPECT_EQ(ReservePortType().hash(), ReservePortType().hash());
  PortType renamed(
      "flight2",
      {MessageSig{"reserve",
                  {ArgType::Of(TypeTag::kString), ArgType::Of(TypeTag::kInt)},
                  {"ok", "full"}},
       MessageSig{"note", {ArgType::Of(TypeTag::kString)}, {}},
       MessageSig{"poll", {}, {"status"}}});
  EXPECT_NE(ReservePortType().hash(), renamed.hash());
  PortType arg_changed(
      "flight",
      {MessageSig{"reserve",
                  {ArgType::Of(TypeTag::kString),
                   ArgType::Of(TypeTag::kReal)},
                  {"ok", "full"}},
       MessageSig{"note", {ArgType::Of(TypeTag::kString)}, {}},
       MessageSig{"poll", {}, {"status"}}});
  EXPECT_NE(ReservePortType().hash(), arg_changed.hash());
}

TEST(PortTypeTest, FindKnowsDeclaredAndImplicitFailure) {
  const PortType type = ReservePortType();
  EXPECT_NE(type.Find("reserve"), nullptr);
  EXPECT_NE(type.Find("poll"), nullptr);
  EXPECT_EQ(type.Find("cancel"), nullptr);
  // failure(string) is associated with every port type implicitly.
  const MessageSig* failure = type.Find(kFailureCommand);
  ASSERT_NE(failure, nullptr);
  ASSERT_EQ(failure->args.size(), 1u);
  EXPECT_EQ(failure->args[0].tag, TypeTag::kString);
}

TEST(PortTypeTest, CheckAcceptsWellTypedMessage) {
  const PortType type = ReservePortType();
  EXPECT_TRUE(type.Check("reserve", {Value::Str("smith"), Value::Int(9)},
                         /*has_reply_port=*/true)
                  .ok());
  EXPECT_TRUE(type.Check("note", {Value::Str("hello")}, false).ok());
  EXPECT_TRUE(type.Check("poll", {}, true).ok());
  EXPECT_TRUE(type.Check(kFailureCommand, {Value::Str("oops")}, false).ok());
}

TEST(PortTypeTest, CheckRejectsArityMismatch) {
  const PortType type = ReservePortType();
  auto st = type.Check("reserve", {Value::Str("smith")}, true);
  EXPECT_EQ(st.code(), Code::kTypeError);
  EXPECT_NE(st.message().find("takes 2"), std::string::npos);
}

TEST(PortTypeTest, CheckRejectsWrongArgumentType) {
  const PortType type = ReservePortType();
  auto st = type.Check("reserve", {Value::Int(1), Value::Int(2)}, true);
  EXPECT_EQ(st.code(), Code::kTypeError);
}

TEST(PortTypeTest, CheckRejectsUnknownCommand) {
  auto st = ReservePortType().Check("cancel", {}, false);
  EXPECT_EQ(st.code(), Code::kTypeError);
}

TEST(PortTypeTest, CheckRejectsReplyPortWhenNoRepliesDeclared) {
  auto st = ReservePortType().Check("note", {Value::Str("x")},
                                    /*has_reply_port=*/true);
  EXPECT_EQ(st.code(), Code::kTypeError);
  // But a reply port on a replies-declaring command is fine, and optional.
  EXPECT_TRUE(ReservePortType()
                  .Check("reserve", {Value::Str("s"), Value::Int(1)}, false)
                  .ok());
}

TEST(PortTypeTest, ExpectsReply) {
  const PortType type = ReservePortType();
  EXPECT_TRUE(type.ExpectsReply("reserve"));
  EXPECT_TRUE(type.ExpectsReply("poll"));
  EXPECT_FALSE(type.ExpectsReply("note"));
  EXPECT_FALSE(type.ExpectsReply("unknown"));
}

TEST(PortTypeTest, FailureSigShape) {
  const MessageSig sig = FailureSig();
  EXPECT_EQ(sig.command, kFailureCommand);
  EXPECT_TRUE(sig.replies.empty());
}

}  // namespace
}  // namespace guardians
