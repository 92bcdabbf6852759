import logging
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dossier.errors import DossierError
from dossier.inputs import (
    EmptyInputError,
    InputKind,
    InvalidForHintError,
    MalformedEmailError,
    MalformedPhoneError,
    Platform,
    UnknownRegionError,
    canonical_host,
    canonical_identifier,
    classify_input,
    country_calling_code,
    hard_identifier_attribute,
    normalize_email,
    normalize_handle,
    normalize_phone,
)


class TestClassificationExamples:
    def test_two_word_name(self):
        q = classify_input("Harry Styles")
        assert (q.kind, q.canonical, q.platform) == (InputKind.NAME, "harry styles", None)
        assert q.raw == "Harry Styles"

    def test_name_collapses_internal_whitespace(self):
        assert classify_input("  Harry   Styles ").canonical == "harry styles"

    def test_single_token_is_keyword(self):
        q = classify_input("blockchain")
        assert (q.kind, q.canonical) == (InputKind.KEYWORD, "blockchain")

    def test_email_detected_and_lowercased(self):
        q = classify_input(" User@Example.COM ")
        assert (q.kind, q.canonical) == (InputKind.EMAIL, "user@example.com")

    def test_short_email_still_email(self):
        assert classify_input("a@b.co").kind is InputKind.EMAIL

    def test_us_formatted_phone(self):
        q = classify_input("(412) 268-2597", default_region="US")
        assert (q.kind, q.canonical) == (InputKind.PHONE, "+14122682597")

    def test_default_region_prefix(self):
        q = classify_input("98765 43210")  # default region applies
        assert (q.kind, q.canonical) == (InputKind.PHONE, "+919876543210")

    def test_e164_passes_through_any_region(self):
        q = classify_input("+14122682597", default_region="FR")
        assert q.canonical == "+14122682597"

    def test_platform_prefix_syntax(self):
        q = classify_input("twitter:JackDorsey")
        assert (q.kind, q.canonical, q.platform) == (
            InputKind.SOCIAL_HANDLE,
            "jackdorsey",
            Platform.TWITTER,
        )

    def test_at_handle_with_platform_hint(self):
        q = classify_input("@shahin.mzr", platform_hint=Platform.INSTAGRAM)
        assert (q.kind, q.canonical, q.platform) == (
            InputKind.SOCIAL_HANDLE,
            "shahin.mzr",
            Platform.INSTAGRAM,
        )

    def test_bare_at_handle_falls_back_to_keyword_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="dossier.inputs"):
            q = classify_input("@someone")
        assert (q.kind, q.canonical) == (InputKind.KEYWORD, "@someone")
        assert any("keyword" in message for message in caplog.messages)

    def test_domain(self):
        q = classify_input("Example.COM.")
        assert (q.kind, q.canonical) == (InputKind.DOMAIN, "example.com")

    def test_subdomain(self):
        assert classify_input("cs.cmu.edu").kind is InputKind.DOMAIN

    @pytest.mark.parametrize("raw", ["bücher.de", "BÜCHER.de", "xn--bcher-kva.de", "ｂüｃｈｅｒ。DE"])
    def test_a_non_ascii_domain_is_its_punycode(self, raw):
        for kind in (None, InputKind.DOMAIN):
            q = classify_input(raw, kind)
            assert (q.kind, q.canonical) == (InputKind.DOMAIN, "xn--bcher-kva.de")

    # test_domain pins "Example.COM." too.
    @pytest.mark.parametrize(
        "raw, kind, canonical",
        [
            ("example.com..", InputKind.KEYWORD, "example.com.."),
            ("Ann@Example.com.", InputKind.EMAIL, "ann@example.com."),
        ],
    )
    def test_ascii_hosts_keep_their_classification(self, raw, kind, canonical):
        q = classify_input(raw)
        assert (q.kind, q.canonical) == (kind, canonical)

    @pytest.mark.parametrize("raw", ["ann@ü..de", "ann@" + "ü" * 64 + ".de"])
    def test_an_email_host_the_idna_codec_refuses_is_malformed(self, raw):
        with pytest.raises(MalformedEmailError):
            classify_input(raw)
        with pytest.raises(InvalidForHintError):
            classify_input(raw, InputKind.EMAIL)
        assert canonical_identifier("email", raw, "IN") is None

    def test_a_national_number_too_long_with_its_dialing_code_raises_unhinted(self):
        with pytest.raises(MalformedPhoneError):
            classify_input("123456789012345")

    def test_short_digits_are_keyword(self):
        assert classify_input("12345").kind is InputKind.KEYWORD

    def test_fullwidth_digits_never_classify_as_phone(self):
        q = classify_input("１２３４５６７８９０１２")
        assert q.kind is InputKind.KEYWORD

    def test_empty_and_blank_raise(self):
        with pytest.raises(EmptyInputError):
            classify_input("")
        with pytest.raises(EmptyInputError):
            classify_input("   \t ")

    def test_rule_order_email_beats_name(self):
        # Contains two alphabetic words either side of the @, but the email
        # rule runs first on the whole string.
        assert classify_input("jane.doe@corp.example").kind is InputKind.EMAIL


class TestHintedClassification:
    def test_keyword_hint_overrides_name_detection(self):
        q = classify_input("covid vaccine research", kind_hint=InputKind.KEYWORD)
        assert (q.kind, q.canonical) == (InputKind.KEYWORD, "covid vaccine research")

    def test_name_hint_requires_two_words(self):
        with pytest.raises(InvalidForHintError):
            classify_input("cher", kind_hint=InputKind.NAME)

    def test_email_hint_rejects_non_email(self):
        with pytest.raises(InvalidForHintError):
            classify_input("not an email", kind_hint=InputKind.EMAIL)

    def test_phone_hint_rejects_letters(self):
        with pytest.raises(InvalidForHintError):
            classify_input("12ab34cd", kind_hint=InputKind.PHONE)

    def test_social_hint_needs_platform(self):
        with pytest.raises(InvalidForHintError):
            classify_input("@jack", kind_hint=InputKind.SOCIAL_HANDLE)

    def test_social_hint_with_platform(self):
        q = classify_input(
            "@Jack",
            kind_hint=InputKind.SOCIAL_HANDLE,
            platform_hint=Platform.TWITTER,
        )
        assert (q.canonical, q.platform) == ("jack", Platform.TWITTER)

    def test_prefix_and_platform_hint_conflict(self):
        with pytest.raises(InvalidForHintError):
            classify_input(
                "twitter:jack",
                kind_hint=InputKind.SOCIAL_HANDLE,
                platform_hint=Platform.FACEBOOK,
            )

    def test_prefix_matching_platform_hint_ok(self):
        q = classify_input(
            "twitter:jack",
            kind_hint=InputKind.SOCIAL_HANDLE,
            platform_hint=Platform.TWITTER,
        )
        assert q.platform is Platform.TWITTER

    def test_platform_hint_with_non_social_kind_rejected(self):
        with pytest.raises(InvalidForHintError):
            classify_input(
                "whatever", kind_hint=InputKind.KEYWORD, platform_hint=Platform.TWITTER
            )

    def test_domain_hint_rejects_non_domain(self):
        with pytest.raises(InvalidForHintError):
            classify_input("not a domain", kind_hint=InputKind.DOMAIN)

    def test_a_kind_hint_that_is_no_input_kind_is_refused(self):
        with pytest.raises(InvalidForHintError, match="unsupported kind hint: 'email'"):
            classify_input("a@b.co", kind_hint="email")


class TestNormalizers:
    def test_normalize_email_strips_all_whitespace(self):
        assert normalize_email(" User@ Example.COM ") == "user@example.com"

    def test_normalize_email_spells_its_host_by_idna(self):
        assert normalize_email("dee@ＥＸＡＭＰＬＥ.com") == "dee@example.com"
        assert normalize_email("Zoë@BÜCHER.de") == "zoë@xn--bcher-kva.de"
        assert normalize_email("Zoë@Example.COM") == "zoë@example.com"

    @pytest.mark.parametrize("raw", ["a@b＠ü.de", "a@b＠x.de", "a@¨ü.de"])
    def test_normalize_email_refuses_a_host_nameprep_turns_into_an_at_or_a_space(self, raw):
        # U+FF20 becomes "@", and U+00A8 a space and a combining diaeresis.
        with pytest.raises(MalformedEmailError):
            normalize_email(raw)

    def test_normalize_email_rejects_double_at(self):
        with pytest.raises(MalformedEmailError):
            normalize_email("a@@b.co")
        with pytest.raises(MalformedEmailError):
            normalize_email("a@b@c.co")
        with pytest.raises(MalformedEmailError):
            normalize_email("@b.co")
        with pytest.raises(MalformedEmailError):
            normalize_email("a@")

    def test_normalize_phone_digit_bounds(self):
        with pytest.raises(MalformedPhoneError):
            normalize_phone("1234567")  # 7 digits: too short
        with pytest.raises(MalformedPhoneError):
            normalize_phone("+1234567890123456")  # 16 digits: too long
        with pytest.raises(MalformedPhoneError):
            normalize_phone("12345678901234")  # 14 + IN prefix = 16

    def test_normalize_phone_rejects_non_ascii_digits(self):
        with pytest.raises(MalformedPhoneError):
            normalize_phone("１２３４５６７８９")

    def test_unknown_region(self):
        with pytest.raises(UnknownRegionError):
            normalize_phone("98765 43210", default_region="ZZ")
        with pytest.raises(UnknownRegionError):
            country_calling_code("XX")
        assert country_calling_code(" us ") == "1"

    def test_normalize_handle(self):
        assert normalize_handle("@Jack") == "jack"
        assert normalize_handle("shahin.mzr") == "shahin.mzr"
        with pytest.raises(InvalidForHintError):
            normalize_handle("ja ck")
        with pytest.raises(InvalidForHintError):
            normalize_handle("j@ck")
        with pytest.raises(InvalidForHintError):
            normalize_handle("@")


class TestHardIdentifierMapping:
    def test_kind_to_attribute(self):
        assert hard_identifier_attribute(InputKind.EMAIL, None) == "email"
        assert hard_identifier_attribute(InputKind.PHONE, None) == "phone"
        assert (
            hard_identifier_attribute(InputKind.SOCIAL_HANDLE, Platform.INSTAGRAM)
            == "social_handle_instagram"
        )
        assert hard_identifier_attribute(InputKind.SOCIAL_HANDLE, None) is None
        assert hard_identifier_attribute(InputKind.NAME, None) is None


@pytest.mark.parametrize(
    "attribute, value, region, expected",
    [
        ("email", "  User@X.Io ", "IN", "user@x.io"),
        ("email", "not-an-email", "IN", None),
        ("email", "a@b@c.co", "IN", None),
        ("phone", "+1 (412) 268-2597", "IN", "+14122682597"),
        ("phone", "+1 (412) 268-2597", "ZZ", "+14122682597"),
        ("phone", "098765 43210", "IN", "+9109876543210"),
        ("phone", "(412) 268-2597", "us", "+14122682597"),
        ("phone", "(412) 268-2597", "ZZ", None),  # unknown region
        ("phone", "garbage", "IN", None),
        ("phone", "1234567", "IN", None),  # too few digits
        ("social_handle_twitter", "@Jack", "IN", "jack"),
        ("social_handle_instagram", "shahin.mzr", "IN", "shahin.mzr"),
        ("social_handle_twitter", "john doe", "IN", None),
        ("social_handle_facebook", "j@ck", "IN", None),
        ("social_handle_twitter", "@", "IN", None),
        ("social_handle_twitter", "twitter:Jack", "IN", "jack"),
        ("social_handle_twitter", " TWITTER:@Jack", "IN", "jack"),
        ("social_handle_twitter", "facebook:jack", "IN", "facebook:jack"),
        ("social_handle_instagram", "instagram:", "IN", None),
        ("full_name", "  Harry ", "IN", None),  # not a hard identifier
    ],
)
def test_canonical_identifier(attribute, value, region, expected):
    assert canonical_identifier(attribute, value, region) == expected


@pytest.mark.parametrize(
    "host, expected",
    [
        ("Example.COM", "example.com"),
        ("example.com..", "example.com.."),  # ASCII: lowercased, nothing else
        ("bücher.de", "xn--bcher-kva.de"),
        ("BLOG.BÜCHER.DE", "blog.xn--bcher-kva.de"),  # the codec keeps ASCII labels' case
        ("ＥＸＡＭＰＬＥ．com", "example.com"),
        ("bücher。de.", "xn--bcher-kva.de."),
        ("straße.de", "strasse.de"),  # IDNA 2003, not 2008
        ("ü..de", None),
        ("ü" * 64 + ".de", None),
        ("xn--ü.de", None),
    ],
)
def test_canonical_host(host, expected):
    assert canonical_host(host) == expected


def test_canonical_host_takes_a_non_ascii_host_within_the_dns_lengths():
    """Fullwidth letters, which nameprep maps to ASCII: 63 to a label and
    253 to a host before its root dot are taken, one more is refused."""
    assert canonical_host("ａ" * 63 + ".de") == "a" * 63 + ".de"
    assert canonical_host("ａ" * 64 + ".de") is None
    host = ".".join(["ａ" * 63] * 3 + ["ａ" * 58, "de"])
    assert len(host) == 253
    assert canonical_host(host) == host.replace("ａ", "a")
    assert canonical_host(host + "。") == host.replace("ａ", "a") + "."
    assert canonical_host(".".join(["ａ" * 63] * 3 + ["ａ" * 59, "de"])) is None


def test_a_long_non_ascii_host_is_refused_before_the_idna_codec():
    """The codec's punycode step takes time in a label's length times its
    distinct characters: on a 20,000-character label of distinct CJK
    characters it ran for about a minute.  The DNS length limits refuse
    such a host first, whether an email's, a URL's or a query's."""
    label = "".join(map(chr, range(0x4E00, 0x4E00 + 20_000)))
    start = time.perf_counter()
    assert canonical_host(label) is None
    assert canonical_host(f"blog.{label}.de") is None
    with pytest.raises(MalformedEmailError):
        normalize_email(f"ann@{label}")
    assert classify_input(label).kind is InputKind.KEYWORD
    for raw, hint in ((f"ann@{label}", InputKind.EMAIL), (label, InputKind.DOMAIN)):
        with pytest.raises(InvalidForHintError):
            classify_input(raw, hint)
    assert time.perf_counter() - start < 2.0


def test_query_carries_the_classification_region():
    assert classify_input("Harry Styles").region == "IN"
    assert classify_input("(412) 268-2597", default_region="US").region == "US"
    hinted = classify_input("jack", InputKind.SOCIAL_HANDLE, Platform.TWITTER, "GB")
    assert hinted.region == "GB"
    assert classify_input("Harry Styles", default_region=" us ").region == "US"
    lower = classify_input("98765 43210", default_region="gb")
    assert (lower.region, lower.canonical) == ("GB", "+449876543210")


@pytest.mark.parametrize(
    "raw, kind, platform",
    [
        ("Harry Styles", None, None),
        ("a@b.co", None, None),
        ("98765 43210", None, None),
        ("+14122682597", None, None),
        ("twitter:jack", None, None),
        ("@jack", None, Platform.TWITTER),
        ("example.com", None, None),
        ("blockchain", None, None),
        ("a@b.co", InputKind.EMAIL, None),
        ("+14122682597", InputKind.PHONE, None),
        ("jack", InputKind.SOCIAL_HANDLE, Platform.TWITTER),
        ("example.com", InputKind.DOMAIN, None),
        ("Harry Styles", InputKind.NAME, None),
        ("blockchain", InputKind.KEYWORD, None),
    ],
)
def test_unknown_region_is_refused_for_every_kind(raw, kind, platform):
    with pytest.raises(UnknownRegionError):
        classify_input(raw, kind, platform, default_region="zz")


# Strings that at least contain something printable, to exercise every rule.
_raw_strings = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=40
)


@given(_raw_strings)
def test_classification_is_total_and_deterministic(raw):
    """Any string either classifies cleanly or raises a typed error."""
    try:
        first = classify_input(raw)
    except DossierError:
        # The same typed failure must repeat.
        with pytest.raises(DossierError):
            classify_input(raw)
        return
    second = classify_input(raw)
    assert (first.kind, first.canonical, first.platform) == (
        second.kind,
        second.canonical,
        second.platform,
    )


@given(_raw_strings)
def test_classification_of_canonical_form_is_stable(raw):
    """Re-classifying a canonical form does not change kind or canonical."""
    try:
        first = classify_input(raw)
    except DossierError:
        return
    if first.kind is InputKind.SOCIAL_HANDLE:
        return  # canonical alone no longer carries the platform
    again = classify_input(first.canonical)
    assert again.kind is first.kind
    assert again.canonical == first.canonical


# Strings built from the pieces of emails, phones and handles, so that the
# identifier rules (and their edge cases) are hit often.
_identifier_like_strings = st.lists(
    st.sampled_from(
        ["twitter:", "Facebook:", "INSTAGRAM:", "@", "+", "+1", "0", "98765", "43210",
         "(412)", "-", ".", ":", " ", "\t", "jack", "Ann", "x.io", "é", "１２", "bücher",
         "ＥＸ", "．"]
    ),
    max_size=6,
).map("".join)

_HINTS = [(InputKind.EMAIL, None), (InputKind.PHONE, None)] + [
    (kind, platform)
    for kind in (None, InputKind.SOCIAL_HANDLE)
    for platform in (None, *Platform)
]


@given(
    _raw_strings | _identifier_like_strings,
    st.sampled_from(_HINTS),
    st.sampled_from(["IN", "US", "gb", " de "]),
)
def test_query_and_stored_fact_canonicalize_alike(raw, hints, region):
    """A string classified as an identifier query has the canonical form that
    the same string stored as that identifier's fact has."""
    try:
        query = classify_input(raw, *hints, default_region=region)
    except DossierError:
        return
    if query.kind in (InputKind.EMAIL, InputKind.PHONE, InputKind.SOCIAL_HANDLE):
        attribute = hard_identifier_attribute(query.kind, query.platform)
        assert canonical_identifier(attribute, raw, region) == query.canonical


# Digits around the 8-15 bounds, after a "+" or none, in groups of three.
_phone_like_strings = st.builds(
    lambda plus, digits, sep: plus + sep.join(digits[i : i + 3] for i in range(0, len(digits), 3)),
    st.sampled_from(["", "+", " +", "++"]),
    st.text("0123456789", min_size=6, max_size=18),
    st.sampled_from(["", " ", "-", ".", ")(", "０"]),
)


@given(
    _raw_strings | _identifier_like_strings | _phone_like_strings,
    st.sampled_from([None, *Platform]),
    st.sampled_from(["IN", "us"]),
)
def test_hinting_the_detected_kind_changes_nothing(raw, platform, region):
    """Giving a query its detected kind and platform as hints changes
    nothing: each kind's test and canonical form are one rule, with a hint
    or without."""
    try:
        query = classify_input(raw, platform_hint=platform, default_region=region)
    except DossierError:
        return
    assert classify_input(raw, query.kind, query.platform, default_region=region) == query


@given(_raw_strings | _identifier_like_strings | _phone_like_strings)
def test_a_query_is_a_phone_exactly_when_its_digits_make_one(raw):
    """Unhinted, a string is taken for a phone number exactly when
    normalize_phone, with no region prefix to add, accepts its digits."""
    text = raw.strip()
    try:
        normalize_phone("+" + text.removeprefix("+"))
        digits_make_a_phone = True
    except MalformedPhoneError:
        digits_make_a_phone = False
    try:
        kind = classify_input(raw).kind
    except MalformedPhoneError as exc:
        # Only the region's dialing code can make a detected phone too long.
        assert "after region prefix" in str(exc)
        kind = InputKind.PHONE
    except DossierError:
        return
    assert (kind is InputKind.PHONE) == digits_make_a_phone


@pytest.mark.parametrize(
    "raw, message",
    [
        ("+1 (41a) 555", "non-digit characters in phone number: '+1 (41a) 555'"),
        (" +() ", "non-digit characters in phone number: ' +() '"),
        ("１２３４５６７８", "non-digit characters in phone number: '１２３４５６７８'"),
        ("+1234-567", "fewer than 8 digits: '+1234-567'"),
        ("+1234567890123456", "more than 15 digits: '+1234567890123456'"),
        ("98765432101234", "more than 15 digits after region prefix: '98765432101234'"),
    ],
)
def test_normalize_phone_names_what_is_wrong(raw, message):
    with pytest.raises(MalformedPhoneError) as caught:
        normalize_phone(raw)
    assert str(caught.value) == message


@given(st.text(alphabet="0123456789", min_size=8, max_size=15))
def test_phone_normalization_shape(digits):
    result = normalize_phone("+" + digits)
    assert result == "+" + digits
    noisy = "+" + " ".join(digits)  # formatting noise is stripped
    assert normalize_phone(noisy) == result
