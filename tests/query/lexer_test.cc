#include "query/lexer.h"

#include <gtest/gtest.h>

namespace tagg {
namespace {

TEST(LexerTest, EmptyInputYieldsEnd) {
  auto tokens = Lex("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_TRUE((*tokens)[0].Is(TokenType::kEnd));
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto tokens = Lex("SELECT name FROM employed");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);
  EXPECT_TRUE((*tokens)[0].IsWord("select"));
  EXPECT_TRUE((*tokens)[1].IsWord("NAME"));
  EXPECT_TRUE((*tokens)[2].IsWord("from"));
  EXPECT_EQ((*tokens)[3].text, "employed");
}

TEST(LexerTest, NumbersIntAndFloat) {
  auto tokens = Lex("42 3.25 007");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].Is(TokenType::kIntLiteral));
  EXPECT_EQ((*tokens)[0].text, "42");
  EXPECT_TRUE((*tokens)[1].Is(TokenType::kFloatLiteral));
  EXPECT_EQ((*tokens)[1].text, "3.25");
  EXPECT_TRUE((*tokens)[2].Is(TokenType::kIntLiteral));
}

TEST(LexerTest, SignedNumbers) {
  auto tokens = Lex("-5 -1.5 -0.0 -9223372036854775808 >-7");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  ASSERT_EQ(tokens->size(), 7u);
  EXPECT_TRUE((*tokens)[0].Is(TokenType::kIntLiteral));
  EXPECT_EQ((*tokens)[0].text, "-5");
  EXPECT_TRUE((*tokens)[1].Is(TokenType::kFloatLiteral));
  EXPECT_EQ((*tokens)[1].text, "-1.5");
  EXPECT_TRUE((*tokens)[2].Is(TokenType::kFloatLiteral));
  EXPECT_EQ((*tokens)[2].text, "-0.0");
  EXPECT_TRUE((*tokens)[3].Is(TokenType::kIntLiteral));
  EXPECT_EQ((*tokens)[3].text, "-9223372036854775808");
  EXPECT_TRUE((*tokens)[4].Is(TokenType::kGt));
  EXPECT_TRUE((*tokens)[5].Is(TokenType::kIntLiteral));
  EXPECT_EQ((*tokens)[5].text, "-7");
  EXPECT_EQ((*tokens)[5].position, 35u);  // the sign's offset
}

TEST(LexerTest, SignWithoutDigitsFails) {
  // The sign belongs to the digits right after it; there is no minus
  // operator.
  EXPECT_FALSE(Lex("- 5").ok());
  EXPECT_FALSE(Lex("x -").ok());
  EXPECT_FALSE(Lex("-.5").ok());
  EXPECT_FALSE(Lex("-x").ok());
}

TEST(LexerTest, StringLiterals) {
  auto tokens = Lex("'hello world'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].Is(TokenType::kStringLiteral));
  EXPECT_EQ((*tokens)[0].text, "hello world");
}

TEST(LexerTest, EscapedQuoteInString) {
  auto tokens = Lex("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("'oops").ok());
}

TEST(LexerTest, Operators) {
  auto tokens = Lex("= <> != < <= > >= ( ) , * ;");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const Token& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types, (std::vector<TokenType>{
                       TokenType::kEq, TokenType::kNe, TokenType::kNe,
                       TokenType::kLt, TokenType::kLe, TokenType::kGt,
                       TokenType::kGe, TokenType::kLParen,
                       TokenType::kRParen, TokenType::kComma,
                       TokenType::kStar, TokenType::kSemicolon,
                       TokenType::kEnd}));
}

TEST(LexerTest, PositionsAreByteOffsets) {
  auto tokens = Lex("ab  cd");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].position, 0u);
  EXPECT_EQ((*tokens)[1].position, 4u);
}

TEST(LexerTest, UnexpectedCharacterFails) {
  auto r = Lex("SELECT @ FROM t");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("position 7"), std::string_view::npos);
}

TEST(LexerTest, LoneBangFails) {
  EXPECT_FALSE(Lex("a ! b").ok());
}

TEST(LexerTest, FloatRequiresDigitsAfterDot) {
  // "5." lexes as int 5 then an unexpected '.'.
  EXPECT_FALSE(Lex("5.").ok());
}

}  // namespace
}  // namespace tagg
