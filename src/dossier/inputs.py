"""Query classification and canonicalization.

A profiling run starts from one raw string.  This module decides what that
string is (email address, phone number, social handle, domain, person name
or keyword), normalizes it into a canonical form, and wraps both in an
immutable :class:`QueryInput` that the rest of the pipeline consumes.  Each
kind is decided by one rule, from the text alone.

Classification without a hint applies a fixed rule order:

    email -> phone -> social handle -> domain -> name -> keyword

A non-empty string lands on the first kind whose rule it meets, unless that
kind's canonical form refuses it with a typed error: fifteen digits without
a ``+`` are too many once the region's dialing code is prefixed
(:class:`MalformedPhoneError`), and ``ann@ü..de`` has a host the IDNA codec
refuses (:class:`MalformedEmailError`).  A host, in an email, a URL or a
domain query, has one spelling, :func:`canonical_host`'s.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import DossierError

# CPython's own SHA-256, as random.py takes its sha512: hashlib would load
# OpenSSL's libcrypto, which only an HTTP collector needs.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11 and earlier
    except ImportError:  # a build without the built-in hash modules
        from hashlib import sha256


class InputKind(Enum):
    """What a query string denotes."""

    NAME = "name"
    EMAIL = "email"
    PHONE = "phone"
    DOMAIN = "domain"
    KEYWORD = "keyword"
    SOCIAL_HANDLE = "social_handle"


class Platform(Enum):
    """Social network a handle belongs to."""

    TWITTER = "twitter"
    FACEBOOK = "facebook"
    INSTAGRAM = "instagram"


class EmptyInputError(DossierError):
    """The query string is empty or whitespace-only."""


class InvalidForHintError(DossierError):
    """A kind hint was given but the string does not fit that kind's syntax."""


class MalformedEmailError(DossierError):
    """The string cannot be normalized into a valid email address."""


class MalformedPhoneError(DossierError):
    """The string cannot be normalized into an E.164 phone number."""


class UnknownRegionError(DossierError):
    """No dialing code is known for the requested default region."""


# Region assumed for phone numbers written without a leading "+".
DEFAULT_REGION = "IN"


@dataclass(frozen=True)
class QueryInput:
    """A classified query: the raw string, its canonical form, and the region
    that national phone numbers (in the query and in evidence) are read in."""

    kind: InputKind
    raw: str
    canonical: str
    platform: Optional[Platform] = None
    region: str = DEFAULT_REGION


# Exactly one "@" with non-empty local part and domain, no whitespace.
_EMAIL_RE = re.compile(r"^[^@\s]+@[^@\s]+$")
# A canonical host (see canonical_host): dotted labels ending in an
# alphabetic TLD; a single trailing dot tolerated.
_DOMAIN_RE = re.compile(r"^(?:[a-z0-9](?:[a-z0-9-]*[a-z0-9])?\.)+[a-z]{2,}\.?$")
# The four label separators of IDNA 2003 (RFC 3490 section 3.1).
_IDNA_DOTS_RE = re.compile("[.\u3002\uff0e\uff61]")
# The longest host before its root dot, and label, that DNS carries
# (RFC 1035 section 2.3.4).
MAX_HOST_CHARS = 253
MAX_LABEL_CHARS = 63
_PLATFORM_PREFIX_RE = re.compile(r"^(twitter|facebook|instagram):(.*)$", re.IGNORECASE)

MIN_PHONE_DIGITS = 8
MAX_PHONE_DIGITS = 15

# ISO 3166-1 alpha-2 region -> international dialing code.
COUNTRY_CALLING_CODES: dict[str, str] = {
    "AE": "971", "AR": "54", "AT": "43", "AU": "61", "BD": "880", "BE": "32",
    "BR": "55", "CA": "1", "CH": "41", "CL": "56", "CN": "86", "CO": "57",
    "DE": "49", "DK": "45", "EG": "20", "ES": "34", "FI": "358", "FR": "33",
    "GB": "44", "GR": "30", "HK": "852", "ID": "62", "IE": "353", "IL": "972",
    "IN": "91", "IQ": "964", "IR": "98", "IS": "354", "IT": "39", "JP": "81",
    "KE": "254", "KR": "82", "LK": "94", "MX": "52", "MY": "60", "NG": "234",
    "NL": "31", "NO": "47", "NP": "977", "NZ": "64", "PE": "51", "PH": "63",
    "PK": "92", "PL": "48", "PT": "351", "RU": "7", "SA": "966", "SE": "46",
    "SG": "65", "TH": "66", "TR": "90", "US": "1", "VN": "84", "ZA": "27",
}


def is_utf8_text(text: str) -> bool:
    """Whether *text* encodes as UTF-8, that is, holds no lone surrogate.

    A JSON escape such as ``\\ud800`` decodes to one, and so does a
    non-UTF-8 byte in a POSIX command-line argument; no report can hold it.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def content_id(*parts: str) -> str:
    """Hex SHA-256 of *parts* joined by U+001F and encoded as UTF-8.

    Record, cluster and batch ids are prefixes of it.  They name content;
    nothing rests on them being hard to forge.
    """
    return sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def country_calling_code(region: str) -> str:
    """Return the dialing code for a two-letter region, e.g. ``"US" -> "1"``."""
    code = COUNTRY_CALLING_CODES.get(region.strip().upper())
    if code is None:
        raise UnknownRegionError(f"no dialing code known for region {region!r}")
    return code


def canonical_host(host: str) -> Optional[str]:
    """The one spelling of *host* that emails, URLs and domain queries share,
    or None when *host* is malformed.

    An ASCII host is lowercased.  Any other host is encoded by the stdlib's
    IDNA 2003 codec (RFC 3490, with RFC 3491 nameprep) and then lowercased,
    since the codec keeps an ASCII label's case: ``BÜCHER.de`` and
    ``ｂüｃｈｅｒ．de`` are ``xn--bcher-kva.de``.  A host the codec refuses,
    one with an empty or over-long label among them, gives None.

    The codec's punycode step takes time in a label's length times its
    distinct characters, so a host longer than DNS allows (253 characters
    before the root dot, 63 in a label) is refused before the codec runs.
    Nameprep rarely shortens a host (it drops a soft hyphen, composes
    ``u`` and a combining diaeresis into ``ü``), so this refuses next to
    no host the codec would take.
    """
    if host.isascii():
        return host.lower()
    name = _IDNA_DOTS_RE.sub(".", host).removesuffix(".")
    if len(name) > MAX_HOST_CHARS or any(
        len(label) > MAX_LABEL_CHARS for label in name.split(".")
    ):
        return None
    try:
        return host.encode("idna").decode("ascii").lower()
    except UnicodeError:
        return None


def normalize_email(raw: str) -> str:
    """Strip whitespace from *raw*, require exactly one ``@``, lowercase the
    local part and spell the host by :func:`canonical_host`.

    Raises :class:`MalformedEmailError` when *raw* does not have a non-empty
    local part and host separated by a single ``@``, or when its host is
    malformed.
    """
    collapsed = "".join(raw.split())
    if not _EMAIL_RE.match(collapsed):
        raise MalformedEmailError(f"not a valid email address: {raw!r}")
    local, _, host = collapsed.partition("@")
    host = canonical_host(host)
    # Nameprep can make an "@" or a space out of another character
    # (U+FF20, U+00A8), so the result is checked as the input was.
    email = f"{local.lower()}@{host}"
    if host is None or not _EMAIL_RE.match(email):
        raise MalformedEmailError(f"not a valid email host: {raw!r}")
    return email


def _strip_phone_noise(text: str) -> str:
    """*text* without the formatting characters ``()- .`` (chained replaces
    are about 4x faster than ``str.translate`` on the path of
    ``normalize_records``, which reads every phone a collector returns)."""
    return text.replace(" ", "").replace("-", "").replace("(", "").replace(")", "").replace(".", "")


def _phone_digits(text: str) -> tuple[bool, str, Optional[str]]:
    """Whether *text* starts with ``+``, its digits without that ``+`` and
    the formatting characters, and why they are no phone number (None when
    they are one): the one digit rule of phone detection and
    :func:`normalize_phone`."""
    has_plus = text.startswith("+")
    digits = _strip_phone_noise(text[1:] if has_plus else text)
    if not digits or not digits.isascii() or not digits.isdigit():
        return has_plus, digits, "non-digit characters in phone number"
    if len(digits) < MIN_PHONE_DIGITS:
        return has_plus, digits, f"fewer than {MIN_PHONE_DIGITS} digits"
    if len(digits) > MAX_PHONE_DIGITS:
        return has_plus, digits, f"more than {MAX_PHONE_DIGITS} digits"
    return has_plus, digits, None


def normalize_phone(raw: str, default_region: str = DEFAULT_REGION) -> str:
    """Normalize *raw* into E.164 form: ``+`` followed by 8-15 digits.

    Formatting characters ``()- .`` are stripped.  A number without a leading
    ``+`` gets the dialing code of *default_region* prefixed.  Numbers already
    in E.164 form pass through unchanged regardless of region.
    """
    has_plus, digits, problem = _phone_digits(raw.strip())
    if problem is not None:
        raise MalformedPhoneError(f"{problem}: {raw!r}")
    if has_plus:
        return "+" + digits
    prefixed = country_calling_code(default_region) + digits
    if len(prefixed) > MAX_PHONE_DIGITS:
        raise MalformedPhoneError(
            f"more than {MAX_PHONE_DIGITS} digits after region prefix: {raw!r}"
        )
    return "+" + prefixed


def normalize_handle(raw: str) -> str:
    """Strip one leading ``@`` and lowercase; reject whitespace or inner ``@``."""
    text = raw.strip()
    if text.startswith("@"):
        text = text[1:]
    # No "@" and no whitespace; split() is about 3x cheaper than a regex here.
    if not text or "@" in text or len(text.split()) != 1:
        raise InvalidForHintError(f"not a valid handle: {raw!r}")
    return text.lower()


# Handle attribute key -> the platform its handles are on.
_HANDLE_PLATFORMS = {f"social_handle_{p.value}": p for p in Platform}


def hard_identifier_attribute(kind: InputKind, platform: Optional[Platform]) -> Optional[str]:
    """Map a query kind to the attribute key it identifies, if any."""
    if kind is InputKind.EMAIL:
        return "email"
    if kind is InputKind.PHONE:
        return "phone"
    if kind is InputKind.SOCIAL_HANDLE and platform is not None:
        return f"social_handle_{platform.value}"
    return None


def canonical_identifier(attribute: str, value: str, region: str) -> Optional[str]:
    """Canonical form of a hard-identifier *value*, or None if it has none.

    Applies exactly the rules :func:`classify_input` applies to a query, with
    *region* for national phone numbers, so a query, a corpus fact and an
    evidence record that name the same identifier canonicalize alike: a
    handle stored as ``twitter:Jack`` under ``social_handle_twitter`` is
    ``jack``, as the query ``twitter:Jack`` is.  Never raises: malformed
    values and non-identifier attributes give None.
    """
    try:
        if attribute == "email":
            return normalize_email(value)
        if attribute == "phone":
            return normalize_phone(value, region)
        if attribute in _HANDLE_PLATFORMS:
            return _canonical_handle(value, _HANDLE_PLATFORMS[attribute])
    except (MalformedEmailError, MalformedPhoneError, UnknownRegionError, InvalidForHintError):
        return None
    return None


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _looks_like_name(text: str) -> bool:
    alpha_tokens = [t for t in text.split() if t.isalpha() and len(t) >= 2]
    return len(alpha_tokens) >= 2


def _platform_from_prefix(text: str) -> Optional[tuple[Platform, str]]:
    match = _PLATFORM_PREFIX_RE.match(text)
    if match is None:
        return None
    return Platform(match.group(1).lower()), match.group(2)


def _canonical_handle(text: str, platform: Platform) -> str:
    """*text* as a handle on *platform*: a ``platform:`` prefix naming that
    platform is dropped, then :func:`normalize_handle` applies."""
    # The ":" test keeps the prefix regex off the common path.
    prefixed = _platform_from_prefix(text.strip()) if ":" in text else None
    if prefixed is not None and prefixed[0] is platform:
        text = prefixed[1]
    return normalize_handle(text)


def _domain_form(text: str) -> Optional[str]:
    """*text*'s canonical host without its root dot, or None when *text* is
    no domain."""
    # Nameprep drops no whitespace character and _DOMAIN_RE takes none, so
    # text with whitespace is no domain, and "Zoë Brook" skips the codec.
    if len(text.split()) != 1:
        return None
    host = canonical_host(text)
    if host is None or not _DOMAIN_RE.match(host):
        return None
    return host.rstrip(".")


def _canonical_domain(text: str) -> str:
    """*text* as a domain query; :class:`InvalidForHintError` if it is none."""
    domain = _domain_form(text)
    if domain is None:
        raise InvalidForHintError(f"not a valid domain: {text!r}")
    return domain


# Query kind -> canonical form of a string of that kind (given its platform and
# phone region); canonical_identifier applies the email, phone and handle rules.
_CANONICAL_FORMS: dict[InputKind, Callable[[str, Optional[Platform], str], str]] = {
    InputKind.EMAIL: lambda text, platform, region: normalize_email(text),
    InputKind.PHONE: lambda text, platform, region: normalize_phone(text, region),
    InputKind.SOCIAL_HANDLE: lambda text, platform, region: _canonical_handle(text, platform),
    InputKind.DOMAIN: lambda text, platform, region: _canonical_domain(text),
    InputKind.NAME: lambda text, platform, region: _collapse(text.lower()),
    InputKind.KEYWORD: lambda text, platform, region: _collapse(text.lower()),
}


def classify_input(
    raw: str,
    kind_hint: Optional[InputKind] = None,
    platform_hint: Optional[Platform] = None,
    default_region: str = DEFAULT_REGION,
) -> QueryInput:
    """Classify *raw* into a :class:`QueryInput` carrying *default_region*.

    Each of the six kinds is decided by one rule, from the text alone: no
    file is read.  *default_region* is read in upper case and must have a
    known dialing code, or :class:`UnknownRegionError` is raised, whatever
    the kind.
    With *kind_hint* the string must fit that kind's syntax or
    :class:`InvalidForHintError` is raised.  Without a hint the fixed rule
    order (email, phone, social handle, domain, name, keyword) picks one
    kind, and the string is canonicalized as that kind, which can still
    raise: :class:`MalformedPhoneError` for ``123456789012345`` (seventeen
    digits with the ``IN`` code), :class:`MalformedEmailError` for an
    address whose host :func:`canonical_host` refuses.  Social handles
    are only detected from explicit ``platform:handle`` syntax or a leading
    ``@`` plus a *platform_hint*; a bare ``@handle`` without a platform falls
    back to keyword with a warning.
    """
    text = raw.strip()
    if not text:
        raise EmptyInputError("query string is empty")
    country_calling_code(default_region)  # refuses a region with no dialing code
    region = default_region.strip().upper()
    if kind_hint is None:
        kind, platform, domain = _detect_kind(raw, text, platform_hint)
        canonical = domain or _CANONICAL_FORMS[kind](text, platform, region)
    else:
        kind, platform = kind_hint, _check_hint(raw, text, kind_hint, platform_hint)
        try:
            canonical = _CANONICAL_FORMS[kind](text, platform, region)
        except (MalformedEmailError, MalformedPhoneError) as exc:
            raise InvalidForHintError(str(exc)) from exc
    return QueryInput(kind, raw, canonical, platform, region)


def _detect_kind(
    raw: str, text: str, platform_hint: Optional[Platform]
) -> tuple[InputKind, Optional[Platform], Optional[str]]:
    """The kind and platform of an unhinted query, by the fixed rule order,
    and its canonical form if it is a domain (the test has computed it)."""
    if _EMAIL_RE.match(text):
        return InputKind.EMAIL, None, None
    if _phone_digits(text)[2] is None:
        return InputKind.PHONE, None, None
    prefixed = _platform_from_prefix(text)
    if prefixed is not None:
        return InputKind.SOCIAL_HANDLE, prefixed[0], None
    if text.startswith("@"):
        if platform_hint is not None:
            return InputKind.SOCIAL_HANDLE, platform_hint, None
        import logging  # only this warning needs it

        logging.getLogger(__name__).warning(
            "bare @handle without a platform hint; treating %r as a keyword", raw
        )
        return InputKind.KEYWORD, None, None
    domain = _domain_form(text)
    if domain is not None:
        return InputKind.DOMAIN, None, domain
    if _looks_like_name(text):
        return InputKind.NAME, None, None
    return InputKind.KEYWORD, None, None


def _check_hint(
    raw: str, text: str, kind_hint: InputKind, platform_hint: Optional[Platform]
) -> Optional[Platform]:
    """Refuse a hinted query whose text cannot be of the hinted kind; return its platform."""
    if platform_hint is not None and kind_hint is not InputKind.SOCIAL_HANDLE:
        raise InvalidForHintError(
            f"platform hint {platform_hint.value!r} only applies to social handles"
        )
    if not isinstance(kind_hint, InputKind):
        raise InvalidForHintError(f"unsupported kind hint: {kind_hint!r}")
    if kind_hint is InputKind.SOCIAL_HANDLE:
        prefixed = _platform_from_prefix(text)
        if prefixed is None:
            if platform_hint is None:
                raise InvalidForHintError(
                    "social handle needs a platform: use 'platform:handle' syntax "
                    "or pass a platform hint"
                )
            return platform_hint
        if platform_hint is not None and platform_hint is not prefixed[0]:
            raise InvalidForHintError(
                f"handle names platform {prefixed[0].value!r} but hint says "
                f"{platform_hint.value!r}"
            )
        return prefixed[0]
    if kind_hint is InputKind.NAME and not _looks_like_name(text):
        raise InvalidForHintError(f"a name needs at least two alphabetic words: {raw!r}")
    return None
