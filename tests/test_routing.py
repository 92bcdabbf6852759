import json

import pytest

from dossier.inputs import InputKind, Platform, QueryInput, classify_input
from dossier.routing import (
    ACCEPT_COLUMNS,
    Backend,
    CollectorDescriptor,
    DuplicateCollectorError,
    HttpCollectorConfig,
    OverlayError,
    Registry,
    accepts,
    builtin_matrix,
    load_overlay,
    route,
)

from conftest import BAD_QUERY_TEMPLATES, NON_ASCII_HTTP_FIELDS

ALL_BUILTINS = [
    "bmobile",
    "maltego",
    "pipl",
    "rapportive",
    "searchbug",
    "social_bearing",
    "social_buzz",
    "stalkscan",
    "tinfoleak",
    "upolos",
    "verify_email",
    "vivial",
    "webmii",
    "whatbreach",
]


def names(collectors):
    return [c.name for c in collectors]


def test_builtin_matrix_contents(registry):
    assert list(registry) == ALL_BUILTINS
    assert all(d.backend is Backend.CORPUS for d in registry.values())
    assert all(d.reliability == 1.0 for d in registry.values())


class TestRouting:
    def test_email_route(self, registry):
        q = classify_input("probe@example.com")
        assert names(route(q, registry)) == [
            "maltego",
            "pipl",
            "rapportive",
            "searchbug",
            "verify_email",
            "whatbreach",
        ]

    def test_phone_route(self, registry):
        q = classify_input("+14155550100")
        assert names(route(q, registry)) == ["bmobile", "maltego", "pipl"]

    def test_twitter_route(self, registry):
        q = classify_input("twitter:probe")
        assert names(route(q, registry)) == [
            "maltego",
            "social_bearing",
            "social_buzz",
            "tinfoleak",
        ]

    def test_facebook_route(self, registry):
        q = classify_input("facebook:probe")
        assert names(route(q, registry)) == ["maltego", "stalkscan"]

    def test_instagram_route(self, registry):
        q = classify_input("instagram:probe")
        assert names(route(q, registry)) == ["maltego", "upolos"]

    def test_domain_route(self, registry):
        q = classify_input("example.com")
        assert names(route(q, registry)) == ["maltego", "vivial"]

    def test_keyword_route(self, registry):
        q = classify_input("blockchain")
        assert names(route(q, registry)) == ["maltego", "webmii"]

    def test_name_routes_as_keyword(self, registry):
        name_q = classify_input("Harry Styles")
        keyword_q = classify_input("harrystyles", kind_hint=InputKind.KEYWORD)
        assert names(route(name_q, registry)) == names(route(keyword_q, registry))

    def test_adding_a_collector_never_removes_routes(self, registry):
        q = classify_input("probe@example.com")
        before = names(route(q, registry))
        wide = CollectorDescriptor(name="zz_everything", accepts=accepts(*ACCEPT_COLUMNS))
        after = names(route(q, Registry([*registry.values(), wide])))
        assert after == before + ["zz_everything"]


class TestRegistry:
    def test_iteration_is_name_sorted(self):
        reg = Registry(
            [
                CollectorDescriptor(name="zeta", accepts=accepts("email")),
                CollectorDescriptor(name="alpha", accepts=accepts("email")),
            ]
        )
        assert list(reg) == ["alpha", "zeta"]

    def test_duplicate_rejected(self):
        d = CollectorDescriptor(name="dup", accepts=accepts("email"))
        with pytest.raises(DuplicateCollectorError):
            Registry([d, d])

    def test_reliability_of_defaults(self, registry):
        assert registry.reliability_of("pipl") == 1.0
        assert registry.reliability_of("unknown") == 1.0

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            CollectorDescriptor(name="", accepts=accepts("email"))
        with pytest.raises(ValueError):
            CollectorDescriptor(name="x", accepts=frozenset())
        with pytest.raises(ValueError):
            CollectorDescriptor(name=5, accepts=accepts("email"))
        with pytest.raises(ValueError):
            CollectorDescriptor(name="x", accepts=accepts("email"), reliability=1.5)
        with pytest.raises(ValueError):
            CollectorDescriptor(name="x", accepts=accepts("email"), reliability=True)
        with pytest.raises(ValueError):
            CollectorDescriptor(name="x", accepts=accepts("email"), http={"base": "http://h"})

    def test_accepts_unknown_column(self):
        with pytest.raises(KeyError):
            accepts("telepathy")


class TestHttpCollectorConfig:
    def test_mapping_dict_becomes_sorted_tuple(self):
        cfg = HttpCollectorConfig(
            base="http://h", response_mapping={"b": "email", "a": "full_name"}
        )
        assert cfg.response_mapping == (("a", "full_name"), ("b", "email"))

    def test_method_normalized_and_validated(self):
        assert HttpCollectorConfig(base="http://h", method="post").method == "POST"
        with pytest.raises(ValueError):
            HttpCollectorConfig(base="http://h", method="DELETE")

    def test_mapping_attribute_must_be_known(self):
        with pytest.raises(ValueError):
            HttpCollectorConfig(base="http://h", response_mapping={"a": "shoe_size"})

    @pytest.mark.parametrize("template", BAD_QUERY_TEMPLATES)
    def test_query_template_may_hold_only_value_and_kind(self, template):
        with pytest.raises(ValueError, match="query_template"):
            HttpCollectorConfig(base="http://h", query_template=template)

    @pytest.mark.parametrize(
        "template",
        ["", "/x", "/q?v={value}", "?email={value}", "/p?q={value}&kind={kind}", "/{{value}}"],
    )
    def test_query_template_with_value_and_kind_loads(self, template):
        config = HttpCollectorConfig(base="http://h", query_template=template)
        assert config.query_template == template

    @pytest.mark.parametrize("field, value", NON_ASCII_HTTP_FIELDS)
    def test_base_and_query_template_must_be_ascii(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be ASCII"):
            HttpCollectorConfig(**{"base": "http://h", field: value})


class TestOverlay:
    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "overlay.json"
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
        return str(path)

    def test_disable_and_redefine(self, registry, tmp_path):
        path = self.write(
            tmp_path,
            {
                "disable": ["pipl"],
                "add": [
                    {
                        "name": "pipl",
                        "accepts": ["email"],
                        "reliability": 0.5,
                        "backend": "http",
                        "http": {
                            "base": "http://127.0.0.1:1",
                            "query_template": "/q?v={value}",
                            "response_mapping": {"name": "full_name"},
                        },
                    }
                ],
            },
        )
        out = load_overlay(registry, path)
        assert out["pipl"].backend is Backend.HTTP
        assert out["pipl"].reliability == 0.5
        # phone queries no longer reach the redefined collector
        assert out["pipl"].accepts == accepts("email")
        assert len(out) == len(registry)

    def test_plain_add(self, registry, tmp_path):
        path = self.write(
            tmp_path, {"add": [{"name": "newbie", "accepts": ["keyword", "email"]}]}
        )
        out = load_overlay(registry, path)
        assert out["newbie"].backend is Backend.CORPUS
        assert out["newbie"].accepts == accepts("keyword", "email")

    @pytest.mark.parametrize(
        "payload",
        [
            "not json {",
            "[1, 2]",
            {"unexpected": []},
            {"disable": "pipl"},
            {"disable": ["never_existed"]},
            {"add": "nope"},
            {"add": [["not", "an", "object"]]},
            {"add": [{"accepts": ["email"]}]},
            {"add": [{"name": "x"}]},
            {"add": [{"name": "x", "accepts": []}]},
            {"add": [{"name": "x", "accepts": ["telepathy"]}]},
            {"add": [{"name": "x", "accepts": ["email"], "backend": "carrier_pigeon"}]},
            {"add": [{"name": "x", "accepts": ["email"], "backend": "http"}]},
            {"add": [{"name": "x", "accepts": ["email"], "backend": "http", "http": {}}]},
            {"add": [{"name": "x", "accepts": ["email"], "reliability": 2.0}]},
            {"add": [{"name": "x", "accepts": ["email"], "surprise": 1}]},
            {"add": [{"name": "pipl", "accepts": ["email"]}]},
            {"disable": [["pipl"]]},
            {"add": [{"name": "x", "accepts": ["email"], "backend": "http",
                      "http": {"base": "http://h", "method": 5}}]},
            {"add": [{"name": "x", "accepts": ["email"], "reliability": True}]},
            {"add": [{"name": "x", "accepts": ["email"], "reliability": "0.5"}]},
            {"add": [{"name": "x", "accepts": ["email"], "backend": "http",
                      "http": {"base": 5}}]},
            {"add": [{"name": "x", "accepts": ["email"], "backend": "http",
                      "http": {"base": "http://h", "credential_env": 5}}]},
            {"add": [{"name": "x", "accepts": ["email"], "backend": "http",
                      "http": {"base": "http://h", "methd": "POST"}}]},
            {"add": [{"name": "x", "accepts": ["email"], "backend": "corpus",
                      "http": {"base": "http://h"}}]},
            {"add": [{"name": "x", "accepts": ["email"], "http": {"base": "http://h"}}]},
            {"add": [{"name": "x", "accepts": ["email"], "http": None}]},
            {"add": [{"name": "x", "accepts": ["email"]}, {"name": "x", "accepts": ["phone"]}]},
            {"disable": ["pipl", "pipl"]},
            pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
            pytest.param(b'{"disable": ["\xff"]}', id="not-utf-8"),
        ],
    )
    def test_malformed_overlays_rejected(self, registry, tmp_path, payload):
        path = self.write(tmp_path, payload)
        with pytest.raises(OverlayError):
            load_overlay(registry, path)

    def test_missing_file(self, registry, tmp_path):
        with pytest.raises(OverlayError):
            load_overlay(registry, tmp_path / "absent.json")


def test_platform_only_matters_for_social_queries(registry):
    # A keyword query carrying stray platform context must route as keyword.
    q = QueryInput(InputKind.KEYWORD, "x", "x", Platform.TWITTER)
    assert names(route(q, registry)) == ["maltego", "webmii"]
