#include "automata/immediate.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace xmlreval::automata {
namespace {

using testutil::CompileOrDie;
using testutil::ForAllWords;
using testutil::Word;

TEST(ImmediateSingleTest, ClassifiesUniversalAndDeadStates) {
  Alphabet alphabet;
  Dfa dfa = CompileOrDie("(a,b,(a|b)*)", &alphabet);
  ImmediateDfa immed = ImmediateDfa::FromSingle(dfa);
  EXPECT_EQ(immed.Class(dfa.Run(Word("ab", &alphabet))),
            StateClass::kImmediateAccept);
  EXPECT_EQ(immed.Class(dfa.Run(Word("b", &alphabet))),
            StateClass::kImmediateReject);
  EXPECT_EQ(immed.Class(dfa.start_state()), StateClass::kNormal);
}

TEST(ImmediateSingleTest, AcceptsSameLanguage) {
  Alphabet alphabet;
  Dfa dfa = CompileOrDie("((a,b)+,c?)", &alphabet);
  ImmediateDfa immed = ImmediateDfa::FromSingle(dfa);
  ForAllWords(alphabet.size(), 5, [&](const std::vector<Symbol>& word) {
    ImmediateRunResult run = immed.Run(word);
    EXPECT_EQ(run.verdict == Verdict::kAccept, dfa.Accepts(word));
  });
}

TEST(ImmediateSingleTest, EarlyRejectOnDeadPrefix) {
  Alphabet alphabet;
  Dfa dfa = CompileOrDie("(a,b,c,d)", &alphabet);
  ImmediateDfa immed = ImmediateDfa::FromSingle(dfa);
  // "ba..." can never recover; rejection after 1 symbol.
  ImmediateRunResult run = immed.Run(Word("bacd", &alphabet));
  EXPECT_EQ(run.verdict, Verdict::kReject);
  EXPECT_TRUE(run.decided_early);
  EXPECT_EQ(run.symbols_scanned, 1u);
}

TEST(ImmediatePairTest, PaperFigure1Scenario) {
  // a = shipTo billTo? items (source), b = shipTo billTo items (target):
  // after reading "shipTo billTo" the remainder languages coincide, so
  // c_immed accepts after 2 of 3 symbols.
  Alphabet alphabet;
  Dfa a = CompileOrDie("(shipTo,billTo?,items)", &alphabet);
  Dfa b = CompileOrDie("(shipTo,billTo,items)", &alphabet);
  ImmediateDfa c = ImmediateDfa::FromPair(a, b);

  std::vector<Symbol> with_bill = {*alphabet.Find("shipTo"),
                                   *alphabet.Find("billTo"),
                                   *alphabet.Find("items")};
  ImmediateRunResult run = c.Run(with_bill);
  EXPECT_EQ(run.verdict, Verdict::kAccept);
  EXPECT_TRUE(run.decided_early);
  EXPECT_EQ(run.symbols_scanned, 2u);

  // Without billTo the string is in L(a) \ L(b); after "shipTo items" the
  // pair is dead (target needed billTo) — rejected by the second symbol.
  std::vector<Symbol> without_bill = {*alphabet.Find("shipTo"),
                                      *alphabet.Find("items")};
  run = c.Run(without_bill);
  EXPECT_EQ(run.verdict, Verdict::kReject);
  EXPECT_TRUE(run.decided_early);
  EXPECT_LE(run.symbols_scanned, 2u);
}

TEST(ImmediatePairTest, IdenticalAutomataAcceptInstantly) {
  Alphabet alphabet;
  Dfa a = CompileOrDie("(x,(y|z)*)", &alphabet);
  ImmediateDfa c = ImmediateDfa::FromPair(a, a);
  // L(q0) ⊆ L(q0): the start state is immediate-accept; no symbol is read.
  ImmediateRunResult run = c.Run(Word("xyz", &alphabet));
  EXPECT_EQ(run.verdict, Verdict::kAccept);
  EXPECT_EQ(run.symbols_scanned, 0u);
}

TEST(ImmediatePairTest, VerdictMatchesMembershipForSourceStrings) {
  Alphabet alphabet;
  Dfa a = CompileOrDie("((a|b)+,c?)", &alphabet);
  Dfa b = CompileOrDie("((a,b)*,c)", &alphabet);
  ImmediateDfa c = ImmediateDfa::FromPair(a, b);
  ForAllWords(alphabet.size(), 6, [&](const std::vector<Symbol>& word) {
    if (!a.Accepts(word)) return;  // Theorem 3 assumes s ∈ L(a)
    ImmediateRunResult run = c.Run(word);
    EXPECT_EQ(run.verdict == Verdict::kAccept, b.Accepts(word));
  });
}

// Proposition 3 (optimality): no immediate decision automaton for
// L(a) ∩ L(b) can decide earlier. Brute force the earliest SEMANTICALLY
// safe decision point for each string: after i symbols a decision is safe
// iff all extensions (up to a length covering the product's diameter)
// agree on the outcome "in L(a) → in L(b)" (accept) or "not in L(a)∩L(b)"
// (reject).
class OptimalityProperty
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(OptimalityProperty, DecidesAtTheEarliestSafePoint) {
  Alphabet alphabet;
  Dfa a = CompileOrDie(GetParam().first, &alphabet);
  Dfa b = CompileOrDie(GetParam().second, &alphabet);
  ImmediateDfa c = ImmediateDfa::FromPair(a, b);
  size_t diameter = a.num_states() * b.num_states() + 1;
  size_t ext = std::min<size_t>(diameter, 6);

  ForAllWords(alphabet.size(), 4, [&](const std::vector<Symbol>& word) {
    if (!a.Accepts(word)) return;
    ImmediateRunResult run = c.Run(word);

    // Brute-force earliest safe point.
    size_t earliest = word.size();
    for (size_t i = 0; i <= word.size(); ++i) {
      StateId qa = a.Run(std::span<const Symbol>(word).subspan(0, i));
      StateId qb = b.Run(std::span<const Symbol>(word).subspan(0, i));
      bool can_accept = true;   // L_ext(qa) ⊆ L_ext(qb) on bounded words
      bool can_reject = true;   // L_ext(qa) ∩ L_ext(qb) = ∅ on bounded words
      ForAllWords(alphabet.size(), ext, [&](const std::vector<Symbol>& w) {
        bool in_a = a.IsAccepting(a.Run(w, qa));
        bool in_b = b.IsAccepting(b.Run(w, qb));
        if (in_a && !in_b) can_accept = false;
        if (in_a && in_b) can_reject = false;
      });
      if (can_accept || can_reject) {
        earliest = i;
        break;
      }
    }
    // c_immed must not be later than the bounded-extension ideal. (It can
    // be EARLIER only if the bounded extension was too short, which the
    // diameter bound prevents for these small automata.)
    EXPECT_LE(run.symbols_scanned, earliest)
        << "string length " << word.size();
  });
}

// Parameters are std::string, not const char*, so the printed values (and
// the test names derived from them) hold the regexes rather than addresses.
INSTANTIATE_TEST_SUITE_P(
    Pairs, OptimalityProperty,
    ::testing::Values(
        std::make_pair("(a,b?,c)", "(a,b,c)"),
        std::make_pair("(a|b)*", "(a,(a|b)*)"),
        std::make_pair("((a,b)*,c?)", "((a,b)+,c)"),
        std::make_pair("(a*,b)", "(a,a*,b)"),
        std::make_pair("((a|b),(a|b))", "((a,a)|(b,b))")));

TEST(ImmediatePairTest, CountClassTallies) {
  Alphabet alphabet;
  Dfa a = CompileOrDie("(a,b?,c)", &alphabet);
  ImmediateDfa c = ImmediateDfa::FromPair(a, a);
  size_t total = c.CountClass(StateClass::kNormal) +
                 c.CountClass(StateClass::kImmediateAccept) +
                 c.CountClass(StateClass::kImmediateReject);
  EXPECT_EQ(total, c.dfa().num_states());
  EXPECT_GT(c.CountClass(StateClass::kImmediateAccept), 0u);
}

}  // namespace
}  // namespace xmlreval::automata
