#include "xml/parser.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "xml/tree.h"

namespace xmlreval::xml {
namespace {

TEST(XmlParserTest, ParsesMinimalDocument) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<root/>"));
  ASSERT_TRUE(doc.has_root());
  EXPECT_EQ(doc.label(doc.root()), "root");
  EXPECT_FALSE(doc.HasChildren(doc.root()));
}

TEST(XmlParserTest, ParsesNestedElementsAndText) {
  ASSERT_OK_AND_ASSIGN(
      Document doc, ParseXml("<a><b>hi</b><c><d>x</d></c></a>"));
  NodeId a = doc.root();
  auto children = ElementChildren(doc, a);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(doc.label(children[0]), "b");
  EXPECT_EQ(doc.SimpleContent(children[0]), "hi");
  auto grand = ElementChildren(doc, children[1]);
  ASSERT_EQ(grand.size(), 1u);
  EXPECT_EQ(doc.SimpleContent(grand[0]), "x");
}

TEST(XmlParserTest, ParsesAttributes) {
  ASSERT_OK_AND_ASSIGN(
      Document doc,
      ParseXml("<e name=\"v1\" other='v2' empty=\"\"/>"));
  EXPECT_EQ(*doc.FindAttribute(doc.root(), "name"), "v1");
  EXPECT_EQ(*doc.FindAttribute(doc.root(), "other"), "v2");
  EXPECT_EQ(*doc.FindAttribute(doc.root(), "empty"), "");
}

TEST(XmlParserTest, RejectsDuplicateAttributes) {
  EXPECT_FALSE(ParseXml("<e a=\"1\" a=\"2\"/>").ok());
}

TEST(XmlParserTest, DecodesEntitiesAndCharRefs) {
  ASSERT_OK_AND_ASSIGN(
      Document doc,
      ParseXml("<e a=\"&lt;&amp;&gt;\">&quot;x&apos; &#65;&#x42;</e>"));
  EXPECT_EQ(*doc.FindAttribute(doc.root(), "a"), "<&>");
  EXPECT_EQ(doc.SimpleContent(doc.root()), "\"x' AB");
}

TEST(XmlParserTest, DecodesMultiByteCharRef) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<e>&#xE9;</e>"));
  EXPECT_EQ(doc.SimpleContent(doc.root()), "\xC3\xA9");  // é in UTF-8
}

TEST(XmlParserTest, RejectsUnknownEntities) {
  Result<Document> result = ParseXml("<e>&unknown;</e>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(XmlParserTest, HandlesCdata) {
  ASSERT_OK_AND_ASSIGN(Document doc,
                       ParseXml("<e><![CDATA[a<b&c]]></e>"));
  EXPECT_EQ(doc.SimpleContent(doc.root()), "a<b&c");
}

TEST(XmlParserTest, SkipsCommentsAndPis) {
  ASSERT_OK_AND_ASSIGN(
      Document doc,
      ParseXml("<?xml version=\"1.0\"?><!-- c --><?pi data?>"
               "<e><!-- inner -->text<?p?></e><!-- after -->"));
  EXPECT_EQ(doc.SimpleContent(doc.root()), "text");
}

TEST(XmlParserTest, RejectsDoubleHyphenInComment) {
  EXPECT_FALSE(ParseXml("<e><!-- a -- b --></e>").ok());
}

TEST(XmlParserTest, SkipsWhitespaceTextByDefault) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<a>\n  <b/>\n  <c/>\n</a>"));
  EXPECT_EQ(doc.CountChildren(doc.root()), 2u);  // no text nodes
}

TEST(XmlParserTest, KeepsWhitespaceWhenAsked) {
  ParseOptions options;
  options.skip_whitespace_text = false;
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<a>\n  <b/>\n</a>", options));
  EXPECT_EQ(doc.CountChildren(doc.root()), 3u);  // ws, b, ws
}

TEST(XmlParserTest, WellFormednessErrors) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                 // unclosed
  EXPECT_FALSE(ParseXml("<a></b>").ok());             // mismatched
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());            // two roots
  EXPECT_FALSE(ParseXml("text").ok());                // no element
  EXPECT_FALSE(ParseXml("<a attr></a>").ok());        // valueless attribute
  EXPECT_FALSE(ParseXml("<a attr=v></a>").ok());      // unquoted value
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());      // interleaved
  EXPECT_FALSE(ParseXml("<1a/>").ok());               // bad name
}

TEST(XmlParserTest, ErrorsCarryLineAndColumn) {
  // Lines count '\n'; columns count bytes from 1. The position is where
  // the offending construct starts, or the end of input for truncation.
  struct Case {
    const char* doc;
    const char* message;
  };
  const Case cases[] = {
      {"<a>\n  <b>\n</a>",
       "XML parse error at 3:1: mismatched closing tag '</a>'; open element "
       "is 'b'"},
      {"<root>\n  <a>\n    <b></a>\n</root>",
       "XML parse error at 3:8: mismatched closing tag '</a>'; open element "
       "is 'b'"},
      {"<root>\n<item id=\"1\" bad></item>\n</root>",
       "XML parse error at 2:17: expected '=' after attribute name"},
      {"<root>\n  <a>text",
       "XML parse error at 2:10: unexpected end of input inside 'a'"},
  };
  for (const Case& c : cases) {
    Result<Document> result = ParseXml(c.doc);
    ASSERT_FALSE(result.ok()) << c.doc;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << c.doc;
    EXPECT_EQ(result.status().message(), c.message) << c.doc;
  }
}

TEST(XmlParserTest, RejectsNonCharacterReferences) {
  // XML 1.0 [2] Char: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
  // [#x10000-#x10FFFF]. Anything else may not be named by a reference.
  for (const char* ref : {"&#0;", "&#1;", "&#xD800;", "&#xFFFE;"}) {
    for (const std::string& doc :
         {"<e>" + std::string(ref) + "</e>",
          "<e a=\"" + std::string(ref) + "\"/>"}) {
      Result<Document> result = ParseXml(doc);
      ASSERT_FALSE(result.ok()) << doc;
      EXPECT_EQ(result.status().code(), StatusCode::kParseError) << doc;
      EXPECT_NE(result.status().message().find("invalid character reference"),
                std::string::npos)
          << doc << ": " << result.status().message();
    }
  }
}

TEST(XmlParserTest, ExtractsDoctypeInternalSubset) {
  ASSERT_OK_AND_ASSIGN(
      ParsedWithDoctype parsed,
      ParseXmlWithDoctype("<!DOCTYPE note [<!ELEMENT note (#PCDATA)>]>"
                          "<note>x</note>"));
  EXPECT_EQ(parsed.doctype_name, "note");
  EXPECT_EQ(parsed.internal_subset, "<!ELEMENT note (#PCDATA)>");
  EXPECT_EQ(parsed.document.label(parsed.document.root()), "note");
}

TEST(XmlParserTest, SkipsExternalDoctype) {
  ASSERT_OK_AND_ASSIGN(
      ParsedWithDoctype parsed,
      ParseXmlWithDoctype(
          "<!DOCTYPE html PUBLIC \"-//W3C\" \"http://x\"><html/>"));
  EXPECT_EQ(parsed.doctype_name, "html");
  EXPECT_TRUE(parsed.internal_subset.empty());
}

TEST(XmlParserTest, DeepNestingDoesNotOverflow) {
  // The parser keeps an explicit stack; 100k depth must not crash.
  std::string text;
  constexpr int kDepth = 100000;
  for (int i = 0; i < kDepth; ++i) text += "<d>";
  for (int i = 0; i < kDepth; ++i) text += "</d>";
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml(text));
  EXPECT_EQ(doc.label(doc.root()), "d");
}

TEST(XmlParserTest, CoalescesAdjacentTextRuns) {
  ASSERT_OK_AND_ASSIGN(Document doc,
                       ParseXml("<e>ab<![CDATA[cd]]>ef</e>"));
  EXPECT_EQ(doc.CountChildren(doc.root()), 1u);
  EXPECT_EQ(doc.SimpleContent(doc.root()), "abcdef");
}

}  // namespace
}  // namespace xmlreval::xml
