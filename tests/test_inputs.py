import logging

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
    MissingImageError,
    Platform,
    UnknownRegionError,
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

    def test_image_hint_existing_file(self, tmp_path):
        image = tmp_path / "face.jpg"
        image.write_bytes(b"\xff\xd8fake")
        q = classify_input(str(image), kind_hint=InputKind.IMAGE_PATH)
        assert (q.kind, q.canonical) == (InputKind.IMAGE_PATH, str(image))

    def test_image_hint_missing_file(self, tmp_path):
        with pytest.raises(MissingImageError):
            classify_input(str(tmp_path / "nope.jpg"), kind_hint=InputKind.IMAGE_PATH)


class TestNormalizers:
    def test_normalize_email_strips_all_whitespace(self):
        assert normalize_email(" User@ Example.COM ") == "user@example.com"

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


def test_query_carries_the_classification_region():
    assert classify_input("Harry Styles").region == "IN"
    assert classify_input("(412) 268-2597", default_region="US").region == "US"
    hinted = classify_input("jack", InputKind.SOCIAL_HANDLE, Platform.TWITTER, "GB")
    assert hinted.region == "GB"


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
    if first.kind in (InputKind.SOCIAL_HANDLE, InputKind.IMAGE_PATH):
        return  # canonical alone no longer carries the platform / file context
    again = classify_input(first.canonical)
    assert again.kind is first.kind
    assert again.canonical == first.canonical


@given(st.text(alphabet="0123456789", min_size=8, max_size=15))
def test_phone_normalization_shape(digits):
    result = normalize_phone("+" + digits)
    assert result == "+" + digits
    noisy = "+" + " ".join(digits)  # formatting noise is stripped
    assert normalize_phone(noisy) == result
