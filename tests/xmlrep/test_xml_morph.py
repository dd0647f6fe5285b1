"""Tests for message morphing over XML (XSLT transforms driven by the
same MaxMatch machinery)."""

import pytest

from repro.bench.workloads import (
    V2_TO_V1_STYLESHEET,
    response_v1_from_v2,
    response_v2,
)
from repro.echo.protocol import RESPONSE_V0, RESPONSE_V1, RESPONSE_V2
from repro.errors import NoMatchError, UnknownFormatError, XSLTError
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import records_equal
from repro.xmlrep.encode import encode_xml
from repro.xmlrep.morph import XMLMorphReceiver, XSLTTransformSpec

V1_TO_V0_STYLESHEET = """\
<xsl:stylesheet version="1.0">
  <xsl:template match="ChannelOpenResponse">
    <ChannelOpenResponse version="0.0">
      <channel_id><xsl:value-of select="channel_id"/></channel_id>
      <member_count><xsl:value-of select="member_count"/></member_count>
      <xsl:for-each select="member_list">
        <member_list>
          <info><xsl:value-of select="info"/></info>
          <ID><xsl:value-of select="ID"/></ID>
        </member_list>
      </xsl:for-each>
    </ChannelOpenResponse>
  </xsl:template>
</xsl:stylesheet>
"""


def build_receiver():
    receiver = XMLMorphReceiver()
    receiver.register_transform(
        XSLTTransformSpec(RESPONSE_V2, RESPONSE_V1, V2_TO_V1_STYLESHEET)
    )
    receiver.register_transform(
        XSLTTransformSpec(RESPONSE_V1, RESPONSE_V0, V1_TO_V0_STYLESHEET)
    )
    return receiver


class TestExactMatch:
    def test_same_version_dispatches(self):
        receiver = build_receiver()
        got = []
        receiver.register_handler(RESPONSE_V2, got.append)
        incoming = response_v2(2)
        receiver.process(encode_xml(RESPONSE_V2, incoming))
        assert records_equal(got[0], incoming)
        assert receiver.morphed == 0


class TestMorphing:
    def test_v2_document_to_v1_reader(self):
        receiver = build_receiver()
        got = []
        receiver.register_handler(RESPONSE_V1, got.append)
        incoming = response_v2(4)
        receiver.process(encode_xml(RESPONSE_V2, incoming))
        assert records_equal(got[0], response_v1_from_v2(incoming))
        assert receiver.morphed == 1

    def test_chained_stylesheets_to_v0(self):
        receiver = build_receiver()
        got = []
        receiver.register_handler(RESPONSE_V0, got.append)
        receiver.process(encode_xml(RESPONSE_V2, response_v2(3)))
        out = got[0]
        assert out["member_count"] == 3
        assert set(out.keys()) == {"channel_id", "member_count", "member_list"}

    def test_routes_cached(self):
        receiver = build_receiver()
        receiver.register_handler(RESPONSE_V1, lambda rec: rec)
        text = encode_xml(RESPONSE_V2, response_v2(2))
        receiver.process(text)
        receiver.process(text)
        assert receiver.cache_hits == 1

    def test_agrees_with_binary_morphing(self):
        """The XML pipeline and the PBIO/ECode pipeline deliver the same
        v1.0 record for the same logical message."""
        from repro.echo.protocol import V2_TO_V1_TRANSFORM
        from repro.morph.transform import Transformation

        incoming = response_v2(5)
        receiver = build_receiver()
        got = []
        receiver.register_handler(RESPONSE_V1, got.append)
        receiver.process(encode_xml(RESPONSE_V2, incoming))
        via_binary = Transformation(V2_TO_V1_TRANSFORM).apply(incoming)
        assert records_equal(got[0], via_binary)


class TestReconciliation:
    def test_imperfect_match_fills_and_drops(self):
        src = IOFormat("T", [IOField("x", "integer"), IOField("gone", "string")],
                       version="new")
        dst = IOFormat("T", [IOField("x", "integer"), IOField("fresh", "float")],
                       version="old")
        receiver = XMLMorphReceiver()
        receiver.declare_format(src)
        got = []
        receiver.register_handler(dst, got.append)
        receiver.process(encode_xml(src, {"x": 5, "gone": "bye"}))
        assert got == [{"x": 5, "fresh": 0.0}]

    def test_importance_zero_field_is_filled_on_a_perfect_score(self):
        # the missing field weighs nothing, so the pair scores perfect —
        # yet the document still lacks it and the handler needs its default
        src = IOFormat("T", [IOField("x", "integer")], version="new")
        dst = IOFormat(
            "T",
            [IOField("x", "integer"),
             IOField("trace", "string", default="none", importance=0)],
            version="old",
        )
        receiver = XMLMorphReceiver(diff_threshold=0, mismatch_threshold=0.0)
        receiver.declare_format(src)
        got = []
        receiver.register_handler(dst, got.append)
        receiver.process(encode_xml(src, {"x": 5}))
        assert got == [{"x": 5, "trace": "none"}]


class TestRejection:
    def test_undeclared_root_tag(self):
        receiver = build_receiver()
        receiver.register_handler(RESPONSE_V1, lambda rec: rec)
        with pytest.raises(UnknownFormatError):
            receiver.process("<Mystery/>")

    def test_no_match_raises(self):
        alien = IOFormat("ChannelOpenResponse", [IOField("blob", "string")],
                         version="alien")
        receiver = XMLMorphReceiver(diff_threshold=0, mismatch_threshold=0.0)
        receiver.declare_format(alien)
        receiver.register_handler(RESPONSE_V1, lambda rec: rec)
        with pytest.raises(NoMatchError):
            receiver.process(encode_xml(alien, {"blob": "?"}))

    def test_bad_stylesheet_fails_at_registration(self):
        receiver = XMLMorphReceiver()
        with pytest.raises(XSLTError):
            receiver.register_transform(
                XSLTTransformSpec(RESPONSE_V2, RESPONSE_V1, "<not-xsl/>")
            )
