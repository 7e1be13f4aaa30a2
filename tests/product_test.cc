#include "automata/product.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace xmlreval::automata {
namespace {

using testutil::CompileOrDie;
using testutil::ForAllWords;
using testutil::Word;

TEST(ProductTest, IntersectionLanguage) {
  Alphabet alphabet;
  Dfa a = CompileOrDie("(a,(b|c))", &alphabet);
  Dfa b = CompileOrDie("((a|b),b)", &alphabet);
  Dfa c = ProductOf(a, b.PaddedTo(alphabet.size()).Minimize());
  // Pad a too (same alphabet here, but keep the sizes honest).
  ForAllWords(alphabet.size(), 3, [&](const std::vector<Symbol>& word) {
    EXPECT_EQ(c.Accepts(word), a.Accepts(word) && b.Accepts(word));
  });
}

TEST(LanguageContainsTest, BasicCases) {
  Alphabet alphabet;
  Dfa optional_b = CompileOrDie("(a,b?,c)", &alphabet);
  Dfa required_b = CompileOrDie("(a,b,c)", &alphabet);
  // Required ⊆ optional, not vice versa — the paper's Figure 1 situation.
  EXPECT_TRUE(LanguageContains(required_b, optional_b));
  EXPECT_FALSE(LanguageContains(optional_b, required_b));
  EXPECT_TRUE(LanguageContains(required_b, required_b));
}

TEST(LanguageContainsTest, StarHierarchy) {
  Alphabet alphabet;
  Dfa plus = CompileOrDie("(a,b)+", &alphabet);
  Dfa star = CompileOrDie("(a,b)*", &alphabet);
  Dfa universal = CompileOrDie("(a|b)*", &alphabet);
  EXPECT_TRUE(LanguageContains(plus, star));
  EXPECT_FALSE(LanguageContains(star, plus));
  EXPECT_TRUE(LanguageContains(star, universal));
  EXPECT_FALSE(LanguageContains(universal, star));
}

TEST(LanguageEqualsTest, EquivalentExpressionsCompareEqual) {
  Alphabet alphabet;
  Dfa x = CompileOrDie("(a,(b,a)*)", &alphabet);
  Dfa y = CompileOrDie("((a,b)*,a)", &alphabet);
  EXPECT_TRUE(LanguageEquals(x, y));
  Dfa z = CompileOrDie("(a,(b,a)+)", &alphabet);
  EXPECT_FALSE(LanguageEquals(x, z));
}

TEST(IntersectionNonEmptyFilteredTest, RespectsTheFilter) {
  Alphabet alphabet;
  Dfa a = CompileOrDie("((a,b)|(c,d))", &alphabet);
  Dfa b = CompileOrDie("((a,b)|(c,d))", &alphabet);
  std::vector<bool> all(alphabet.size(), true);
  EXPECT_TRUE(IntersectionNonEmptyFiltered(a, b, all));

  // Forbid 'b': only (c,d) remains.
  std::vector<bool> no_b = all;
  no_b[*alphabet.Find("b")] = false;
  EXPECT_TRUE(IntersectionNonEmptyFiltered(a, b, no_b));

  // Forbid 'b' and 'd': nothing remains.
  std::vector<bool> no_bd = no_b;
  no_bd[*alphabet.Find("d")] = false;
  EXPECT_FALSE(IntersectionNonEmptyFiltered(a, b, no_bd));
}

TEST(IntersectionNonEmptyFilteredTest, EpsilonInBothIsNonEmpty) {
  Alphabet alphabet;
  Dfa a = CompileOrDie("a*", &alphabet);
  Dfa b = CompileOrDie("(a,a)*", &alphabet);
  std::vector<bool> none(alphabet.size(), false);
  // ε is in both languages, and ε ∈ P* for any P.
  EXPECT_TRUE(IntersectionNonEmptyFiltered(a, b, none));
}

TEST(LanguageNonEmptyFilteredTest, ProductivityStyleQueries) {
  Alphabet alphabet;
  Dfa dfa = CompileOrDie("((a,b)|c)", &alphabet);
  std::vector<bool> only_c(alphabet.size(), false);
  only_c[*alphabet.Find("c")] = true;
  EXPECT_TRUE(LanguageNonEmptyFiltered(dfa, only_c));
  std::vector<bool> only_a(alphabet.size(), false);
  only_a[*alphabet.Find("a")] = true;
  EXPECT_FALSE(LanguageNonEmptyFiltered(dfa, only_a));
}

TEST(StateContainmentTableTest, MatchesBruteForce) {
  // contains[(qa,qb)] must equal "every word accepted from qa is accepted
  // from qb", verified exhaustively on short words.
  Alphabet alphabet;
  Dfa a = CompileOrDie("(a,b?,c)", &alphabet);
  Dfa b = CompileOrDie("(a,b,c)", &alphabet);
  std::vector<bool> table = StateContainmentTable(a, b);
  PairEncoding enc{b.num_states()};

  // Brute force: for words up to length 6 (longer than any live path in
  // these DFAs), find a counterexample word for each pair.
  std::vector<bool> brute(a.num_states() * b.num_states(), true);
  ForAllWords(alphabet.size(), 6, [&](const std::vector<Symbol>& word) {
    for (StateId qa = 0; qa < a.num_states(); ++qa) {
      for (StateId qb = 0; qb < b.num_states(); ++qb) {
        if (a.IsAccepting(a.Run(word, qa)) &&
            !b.IsAccepting(b.Run(word, qb))) {
          brute[enc.Encode(qa, qb)] = false;
        }
      }
    }
  });
  EXPECT_EQ(table, brute);
}

TEST(StateContainmentTableTest, StartPairMatchesLanguageContainment) {
  Alphabet alphabet;
  Dfa req = CompileOrDie("(a,b,c)", &alphabet);
  Dfa opt = CompileOrDie("(a,b?,c)", &alphabet);
  {
    std::vector<bool> table = StateContainmentTable(req, opt);
    PairEncoding enc{opt.num_states()};
    EXPECT_TRUE(table[enc.Encode(req.start_state(), opt.start_state())]);
  }
  {
    std::vector<bool> table = StateContainmentTable(opt, req);
    PairEncoding enc{req.num_states()};
    EXPECT_FALSE(table[enc.Encode(opt.start_state(), req.start_state())]);
  }
}

}  // namespace
}  // namespace xmlreval::automata

namespace xmlreval::automata {
namespace {

// Theorem 4: Definition 7 (IA = pairs with L(q_a) ⊆ L(q_b)) and
// Definition 8 (no reachable pair accepts-in-a while rejecting-in-b) agree.
// StateContainmentTable implements Definition 8; Definition 7 is checked
// directly by re-rooting each automaton at the pair's states and running
// the language-containment test.
class Theorem4Equivalence
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(Theorem4Equivalence, DefinitionsAgree) {
  Alphabet alphabet;
  Dfa a = testutil::CompileOrDie(GetParam().first, &alphabet);
  Dfa b = testutil::CompileOrDie(GetParam().second, &alphabet);
  std::vector<bool> table = StateContainmentTable(a, b);  // Definition 8
  PairEncoding enc{b.num_states()};
  for (StateId qa = 0; qa < a.num_states(); ++qa) {
    for (StateId qb = 0; qb < b.num_states(); ++qb) {
      Dfa a_from = a;
      a_from.set_start_state(qa);
      Dfa b_from = b;
      b_from.set_start_state(qb);
      bool definition7 = LanguageContains(a_from, b_from);
      EXPECT_EQ(table[enc.Encode(qa, qb)], definition7)
          << "pair (" << qa << ", " << qb << ")";
    }
  }
}

// Parameters are std::string, not const char*, so the printed values (and
// the test names derived from them) hold the regexes rather than addresses.
INSTANTIATE_TEST_SUITE_P(
    Pairs, Theorem4Equivalence,
    ::testing::Values(std::make_pair("(a,b?,c)", "(a,b,c)"),
                      std::make_pair("(a|b)*", "((a,b)|(b,a))*"),
                      std::make_pair("((a,b)+,c?)", "((a|b)*,c)"),
                      std::make_pair("(a*,b*)", "(a,b)*")));

}  // namespace
}  // namespace xmlreval::automata
